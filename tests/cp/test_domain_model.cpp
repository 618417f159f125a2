// Randomized property suite: Domain (sorted interval set with small-buffer
// storage) checked operation-by-operation against a std::set<int> reference
// model. Every mutation must agree with the reference on content, on the
// reported "changed" flag, and on all queries; the interval representation
// must stay canonical (sorted, disjoint, non-adjacent) so the small-buffer
// invariant is exercised across the inline/heap boundary in both
// directions.
#include "revec/cp/domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

namespace revec::cp {
namespace {

constexpr int kLo = -40;
constexpr int kHi = 40;

/// Canonical interval count of a value set: the number of maximal runs.
std::size_t run_count(const std::set<int>& s) {
    std::size_t runs = 0;
    int prev = 0;
    bool first = true;
    for (const int v : s) {
        if (first || v != prev + 1) ++runs;
        prev = v;
        first = false;
    }
    return runs;
}

/// Full structural comparison of a Domain against the reference set.
void expect_matches(const Domain& d, const std::set<int>& ref, unsigned seed, int step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    ASSERT_EQ(d.empty(), ref.empty());
    ASSERT_EQ(d.size(), static_cast<std::int64_t>(ref.size()));
    if (ref.empty()) return;

    EXPECT_EQ(d.min(), *ref.begin());
    EXPECT_EQ(d.max(), *ref.rbegin());
    EXPECT_EQ(d.is_fixed(), ref.size() == 1);
    if (ref.size() == 1) {
        EXPECT_EQ(d.value(), *ref.begin());
    }

    // Representation canonicality: exactly one interval per maximal run.
    ASSERT_EQ(d.num_intervals(), run_count(ref));
    EXPECT_EQ(d.is_range(), run_count(ref) == 1);
    int prev_hi = 0;
    bool first = true;
    for (const Interval& iv : d.intervals()) {
        ASSERT_LE(iv.lo, iv.hi);
        if (!first) {
            ASSERT_GT(iv.lo, prev_hi + 1);  // disjoint and non-adjacent
        }
        prev_hi = iv.hi;
        first = false;
    }

    // Value-level queries across the full working range (plus margins).
    for (int v = kLo - 2; v <= kHi + 2; ++v) {
        ASSERT_EQ(d.contains(v), ref.count(v) != 0) << "v=" << v;
        int nv = 0;
        const auto it = ref.lower_bound(v);
        ASSERT_EQ(d.next_value(v, nv), it != ref.end()) << "v=" << v;
        if (it != ref.end()) {
            ASSERT_EQ(nv, *it) << "v=" << v;
        }
    }

    // Enumeration order.
    std::vector<int> seen;
    d.for_each([&](int v) { seen.push_back(v); });
    EXPECT_TRUE(std::equal(seen.begin(), seen.end(), ref.begin(), ref.end()));

    // intersects_range on a sample of query windows.
    for (int lo = kLo - 1; lo <= kHi; lo += 7) {
        for (int hi = lo; hi <= kHi + 1; hi += 5) {
            const bool truth = ref.lower_bound(lo) != ref.end() && *ref.lower_bound(lo) <= hi;
            ASSERT_EQ(d.intersects_range(lo, hi), truth) << lo << ".." << hi;
        }
    }
}

class DomainModel : public ::testing::TestWithParam<unsigned> {};

TEST_P(DomainModel, AgreesWithSetReference) {
    const unsigned seed = GetParam();
    std::mt19937 rng(seed);
    const auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
    };

    // Start from a random value set (sometimes a plain range).
    Domain d;
    std::set<int> ref;
    if (rng() % 3 == 0) {
        const int lo = pick(kLo, kHi);
        const int hi = pick(lo, kHi);
        d = Domain(lo, hi);
        for (int v = lo; v <= hi; ++v) ref.insert(v);
    } else {
        std::vector<int> values;
        const int n = pick(1, 30);
        for (int i = 0; i < n; ++i) values.push_back(pick(kLo, kHi));
        ref.insert(values.begin(), values.end());
        d = Domain::of_values(std::move(values));
    }
    expect_matches(d, ref, seed, -1);

    for (int step = 0; step < 60 && !ref.empty(); ++step) {
        bool changed_ref = false;
        bool changed_dom = false;
        switch (rng() % 6) {
            case 0: {  // remove_below
                const int v = pick(kLo - 2, kHi + 2);
                changed_dom = d.remove_below(v);
                changed_ref = !ref.empty() && *ref.begin() < v;
                ref.erase(ref.begin(), ref.lower_bound(v));
                break;
            }
            case 1: {  // remove_above
                const int v = pick(kLo - 2, kHi + 2);
                changed_dom = d.remove_above(v);
                changed_ref = !ref.empty() && *ref.rbegin() > v;
                ref.erase(ref.upper_bound(v), ref.end());
                break;
            }
            case 2: {  // remove_value
                const int v = pick(kLo - 1, kHi + 1);
                changed_dom = d.remove_value(v);
                changed_ref = ref.erase(v) > 0;
                break;
            }
            case 3: {  // remove_range
                const int lo = pick(kLo - 1, kHi + 1);
                const int hi = pick(lo, kHi + 2);
                changed_dom = d.remove_range(lo, hi);
                const auto from = ref.lower_bound(lo);
                const auto to = ref.upper_bound(hi);
                changed_ref = from != to;
                ref.erase(from, to);
                break;
            }
            case 4: {  // intersect_with a random other domain
                std::vector<int> values;
                const int n = pick(1, 25);
                for (int i = 0; i < n; ++i) values.push_back(pick(kLo, kHi));
                std::set<int> other(values.begin(), values.end());
                changed_dom = d.intersect_with(Domain::of_values(std::move(values)));
                std::set<int> kept;
                for (const int v : ref) {
                    if (other.count(v) != 0) kept.insert(v);
                }
                changed_ref = kept.size() != ref.size();
                ref = std::move(kept);
                break;
            }
            default: {  // assign to a present value
                auto it = ref.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(rng() % ref.size()));
                const int v = *it;
                changed_dom = d.assign(v);
                changed_ref = ref.size() > 1;
                ref = {v};
                break;
            }
        }
        ASSERT_EQ(changed_dom, changed_ref) << "seed " << seed << " step " << step;
        expect_matches(d, ref, seed, step);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomWalks, DomainModel, ::testing::Range(0u, 150u));

// Copies and moves across the inline/heap storage boundary.
TEST(DomainModel, CopyAndMoveAcrossStorageBoundary) {
    // 5 intervals: heap-backed.
    Domain holes = Domain::of_values({0, 2, 4, 6, 8});
    ASSERT_EQ(holes.num_intervals(), 5u);

    Domain copy = holes;
    EXPECT_TRUE(copy == holes);

    Domain moved = std::move(holes);
    EXPECT_TRUE(moved == copy);
    EXPECT_TRUE(holes.empty());  // NOLINT(bugprone-use-after-move): documented reset

    // Shrink through the boundary: 5 -> 2 -> 1 intervals.
    EXPECT_TRUE(moved.remove_range(3, 6));  // {0, 2, 8}
    EXPECT_EQ(moved.num_intervals(), 3u);
    EXPECT_TRUE(moved.remove_value(2));  // {0, 8}
    EXPECT_EQ(moved.num_intervals(), 2u);
    EXPECT_TRUE(moved.remove_value(8));  // {0}
    EXPECT_TRUE(moved.is_fixed());
    EXPECT_EQ(moved.value(), 0);

    // Reassignment into a previously heap-backed domain.
    copy = Domain(1, 3);
    EXPECT_TRUE(copy.is_range());
    EXPECT_EQ(copy.size(), 3);
}

}  // namespace
}  // namespace revec::cp
