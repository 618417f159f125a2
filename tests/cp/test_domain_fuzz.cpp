// Randomized differential fuzz for the hybrid Domain representation: every
// mutation op on a packing-enabled Domain is driven against a naive
// std::set<int> reference model, with the full query surface (size, bounds,
// containment, next_value, run iteration, equality, printing) re-validated
// after each step. Also pins the moved-from-domain contract and the
// store-level trail round-trip across representation-conversion and
// snapshot boundaries (a packed domain emptying and being word-restored,
// an interval domain converting to packed mid-level and unwinding back).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "revec/cp/store.hpp"

namespace revec::cp {
namespace {

/// Reference implementation of Domain over std::set<int>.
struct RefModel {
    std::set<int> vals;

    bool remove_below(int v) {
        return erase_if([&](int x) { return x < v; });
    }
    bool remove_above(int v) {
        return erase_if([&](int x) { return x > v; });
    }
    bool remove_range(int lo, int hi) {
        return erase_if([&](int x) { return lo <= x && x <= hi; });
    }
    bool intersect_with(const std::set<int>& other) {
        return erase_if([&](int x) { return other.count(x) == 0; });
    }
    bool assign(int v) {
        const bool changed = vals.size() != 1;
        vals.clear();
        vals.insert(v);
        return changed;
    }

    template <typename Pred>
    bool erase_if(Pred&& pred) {
        const std::size_t before = vals.size();
        for (auto it = vals.begin(); it != vals.end();) {
            it = pred(*it) ? vals.erase(it) : ++it;
        }
        return vals.size() != before;
    }

    std::size_t run_count() const {
        std::size_t runs = 0;
        int prev = 0;
        bool have_prev = false;
        for (const int v : vals) {
            if (!have_prev || v != prev + 1) ++runs;
            prev = v;
            have_prev = true;
        }
        return runs;
    }
};

/// Full query-surface comparison between a Domain and the reference set.
void expect_matches(const Domain& d, const RefModel& ref, unsigned seed, int step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step) +
                 " dom " + d.to_string());
    ASSERT_EQ(d.size(), static_cast<std::int64_t>(ref.vals.size()));
    ASSERT_EQ(d.empty(), ref.vals.empty());
    ASSERT_EQ(d.num_intervals(), ref.run_count());
    if (ref.vals.empty()) return;
    ASSERT_EQ(d.min(), *ref.vals.begin());
    ASSERT_EQ(d.max(), *ref.vals.rbegin());
    ASSERT_EQ(d.is_fixed(), ref.vals.size() == 1);
    ASSERT_EQ(d.is_range(),
              static_cast<std::int64_t>(ref.vals.size()) ==
                  static_cast<std::int64_t>(d.max()) - d.min() + 1);
    if (ref.vals.size() == 1) ASSERT_EQ(d.value(), *ref.vals.begin());

    // Containment and next_value probed around the hull's edges.
    for (int v = d.min() - 2; v <= d.max() + 2; ++v) {
        ASSERT_EQ(d.contains(v), ref.vals.count(v) == 1) << "v=" << v;
        const auto it = ref.vals.lower_bound(v);
        int nv = 0;
        const bool found = d.next_value(v, nv);
        ASSERT_EQ(found, it != ref.vals.end()) << "v=" << v;
        if (found) ASSERT_EQ(nv, *it) << "v=" << v;
        if (v <= d.max()) {
            const bool want = it != ref.vals.end() && *it <= d.max();
            ASSERT_EQ(d.intersects_range(v, d.max()), want) << "v=" << v;
        }
    }

    // Run iteration enumerates exactly the reference values, in order.
    std::vector<int> walked;
    d.for_each([&](int v) { walked.push_back(v); });
    ASSERT_TRUE(std::equal(walked.begin(), walked.end(), ref.vals.begin(),
                           ref.vals.end()));

    // for_each_run yields maximal runs (each bounded by absent neighbors).
    d.for_each_run([&](int lo, int hi) {
        ASSERT_LE(lo, hi);
        ASSERT_EQ(ref.vals.count(lo - 1), 0u);
        ASSERT_EQ(ref.vals.count(hi + 1), 0u);
    });
}

/// A random domain + matching reference set; packing enabled with
/// probability 1/2 so intersect fuzz crosses representations.
Domain random_domain(std::mt19937& rng, RefModel& ref, bool allow_packing) {
    const auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
    };
    Domain d;
    if (rng() % 4 == 0) {
        const int lo = pick(-60, 60);
        const int hi = pick(lo, lo + pick(0, 80));
        d = Domain(lo, hi);
        for (int v = lo; v <= hi; ++v) ref.vals.insert(v);
    } else {
        std::vector<int> values;
        const int n = pick(1, 40);
        for (int k = 0; k < n; ++k) {
            const int v = pick(-60, 60);
            values.push_back(v);
            ref.vals.insert(v);
        }
        d = Domain::of_values(std::move(values));
    }
    if (allow_packing && rng() % 2 == 0) d.enable_packing();
    return d;
}

class DomainFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(DomainFuzz, EveryMutationMatchesTheReferenceSet) {
    const unsigned seed = GetParam();
    std::mt19937 rng(seed);
    const auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
    };

    RefModel ref;
    Domain d = random_domain(rng, ref, /*allow_packing=*/false);
    d.enable_packing();  // the domain under test always allows packing
    expect_matches(d, ref, seed, -1);

    for (int step = 0; step < 120 && !ref.vals.empty(); ++step) {
        const int lo = d.min();
        const int hi = d.max();
        bool changed_d = false;
        bool changed_ref = false;
        switch (rng() % 6) {
            case 0: {
                const int v = pick(lo - 2, hi + 2);
                changed_d = d.remove_below(v);
                changed_ref = ref.remove_below(v);
                break;
            }
            case 1: {
                const int v = pick(lo - 2, hi + 2);
                changed_d = d.remove_above(v);
                changed_ref = ref.remove_above(v);
                break;
            }
            case 2: {
                const int v = pick(lo - 1, hi + 1);
                changed_d = d.remove_value(v);
                changed_ref = ref.remove_range(v, v);
                break;
            }
            case 3: {
                const int a = pick(lo - 2, hi + 2);
                const int b = pick(a, hi + 2);
                changed_d = d.remove_range(a, b);
                changed_ref = ref.remove_range(a, b);
                break;
            }
            case 4: {
                RefModel oref;
                const Domain other = random_domain(rng, oref, /*allow_packing=*/true);
                changed_d = d.intersect_with(other);
                changed_ref = ref.intersect_with(oref.vals);
                break;
            }
            default: {
                const int v = pick(lo, hi);
                if (!d.contains(v)) continue;
                changed_d = d.assign(v);
                changed_ref = ref.assign(v);
                break;
            }
        }
        ASSERT_EQ(changed_d, changed_ref) << "seed " << seed << " step " << step;
        expect_matches(d, ref, seed, step);

        // Semantic equality must hold against an interval-representation
        // rebuild of the same value set, and to_string must agree with it.
        Domain rebuilt =
            Domain::of_values(std::vector<int>(ref.vals.begin(), ref.vals.end()));
        ASSERT_TRUE(d == rebuilt) << d.to_string();
        ASSERT_EQ(d.to_string(), rebuilt.to_string());
    }
}

INSTANTIATE_TEST_SUITE_P(RandomWalks, DomainFuzz, ::testing::Range(0u, 150u));

TEST(DomainFuzz, MovedFromDomainIsEmptyAndReusable) {
    Domain d = Domain::of_values({1, 3, 5, 7, 9, 20, 22, 40});
    d.enable_packing();
    ASSERT_TRUE(d.packed());

    Domain moved(std::move(d));
    EXPECT_TRUE(moved.packed());
    EXPECT_EQ(moved.size(), 8);
    // NOLINTBEGIN(bugprone-use-after-move) — the moved-from contract (empty,
    // reusable) is exactly what is under test here.
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.size(), 0);
    EXPECT_FALSE(d.packed());

    d = Domain(4, 6);
    EXPECT_EQ(d.size(), 3);
    d = std::move(moved);
    EXPECT_EQ(d.size(), 8);
    EXPECT_TRUE(moved.empty());
    EXPECT_FALSE(moved.is_fixed());
    // NOLINTEND(bugprone-use-after-move)
}

// Word-diff restore across a packed domain wiping out entirely: the bitmap
// is zeroed in place on failure, and reverse word replay must resurrect it
// with exact bounds and size.
TEST(DomainFuzz, TrailRestoresPackedDomainFromWipeout) {
    Store s;  // default engine: packed domains + word-diff trail
    const IntVar x = s.new_var(Domain::of_values({0, 2, 4, 6, 8, 64, 66, 130}));
    ASSERT_TRUE(s.dom(x).packed());
    const Domain before = s.dom(x);

    s.push_level();
    EXPECT_FALSE(s.remove_range(x, -10, 500));  // wipes out: failure
    EXPECT_TRUE(s.failed());
    EXPECT_TRUE(s.dom(x).empty());
    s.pop_level();

    EXPECT_FALSE(s.failed());
    EXPECT_TRUE(s.dom(x) == before);
    EXPECT_EQ(s.min(x), 0);
    EXPECT_EQ(s.max(x), 130);
    EXPECT_EQ(s.size(x), 8);
}

// Interval-to-packed conversion mid-level: the pre-conversion record is a
// snapshot/bounds of the interval state, so unwinding must return the
// variable to the interval representation bit-exactly, across several
// nested levels with further packed-era mutations in between.
TEST(DomainFuzz, TrailUnwindsRepresentationConversion) {
    Store s;
    const IntVar x = s.new_var(0, 200);  // contiguous: stays interval
    ASSERT_FALSE(s.dom(x).packed());
    const Domain root = s.dom(x);

    s.push_level();
    ASSERT_TRUE(s.set_min(x, 10));           // pure clip, still interval
    const Domain clipped = s.dom(x);
    ASSERT_TRUE(s.remove_range(x, 50, 60));  // hole: converts to packed
    ASSERT_TRUE(s.dom(x).packed());
    EXPECT_GT(s.stats().packed_converts, 0);

    s.push_level();
    ASSERT_TRUE(s.remove(x, 100));           // packed-era mutation: word diff
    ASSERT_TRUE(s.assign(x, 150));
    const Domain fixed = s.dom(x);
    EXPECT_EQ(s.value(x), 150);
    s.pop_level();

    EXPECT_TRUE(s.dom(x).packed());
    EXPECT_EQ(s.size(x), clipped.size() - 11);
    EXPECT_TRUE(s.dom(x).contains(100));
    EXPECT_FALSE(s.dom(x).contains(55));
    EXPECT_FALSE(s.dom(x) == fixed);

    s.pop_level();
    EXPECT_FALSE(s.dom(x).packed());
    EXPECT_TRUE(s.dom(x) == root);
    EXPECT_EQ(s.min(x), 0);
    EXPECT_EQ(s.max(x), 200);

    // The same level may convert again after unwinding (fresh capture).
    s.push_level();
    ASSERT_TRUE(s.remove_range(x, 5, 7));
    ASSERT_TRUE(s.dom(x).packed());
    s.pop_level();
    EXPECT_TRUE(s.dom(x) == root);
}

// Hole churn on packed domains trails one 16-byte word record per nonzero
// bitmap word at first touch per level, and nothing after. The golden
// 9 008 bytes are 3.7x less than the same churn cost on interval domains
// (32 912) or full snapshots (32 928) when those were still selectable.
// Unwinding every level must restore the root domain.
TEST(DomainFuzz, WordDiffTrailShrinksTrailBytes) {
    Store packed;
    std::vector<IntVar> xs;
    for (int i = 0; i < 4; ++i) xs.push_back(packed.new_var(0, 300));
    const Domain root = packed.dom(xs[0]);

    std::mt19937 rng(7);
    for (int round = 0; round < 30; ++round) {
        packed.push_level();
        for (int k = 0; k < 20; ++k) {
            const IntVar x = xs[rng() % xs.size()];
            const int at = 3 + static_cast<int>(rng() % 290);
            ASSERT_TRUE(packed.remove_range(x, at, at + 1));
        }
    }
    for (int round = 0; round < 30; ++round) packed.pop_level();
    for (const IntVar x : xs) {
        EXPECT_TRUE(packed.dom(x) == root);
        EXPECT_EQ(packed.size(x), 301);
    }
    EXPECT_EQ(packed.stats().trail_snapshots, 0);
    EXPECT_EQ(packed.stats().trail_word_diffs, 560);
    EXPECT_EQ(packed.stats().trail_bytes, 9008);
}

}  // namespace
}  // namespace revec::cp
