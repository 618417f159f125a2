// Randomized differential fuzz for Domain: every mutation op is driven
// against a naive std::set<int> reference model, with the full query
// surface (size, bounds, containment, next_value, run iteration, equality,
// printing) re-validated after each step. Also pins the moved-from-domain
// contract and the store-level trail round-trip of a holed domain that
// wipes out and is restored from its snapshot.
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
    if (ref.vals.size() == 1) {
        ASSERT_EQ(d.value(), *ref.vals.begin());
    }

    // Containment and next_value probed around the hull's edges.
    for (int v = d.min() - 2; v <= d.max() + 2; ++v) {
        ASSERT_EQ(d.contains(v), ref.vals.count(v) == 1) << "v=" << v;
        const auto it = ref.vals.lower_bound(v);
        int nv = 0;
        const bool found = d.next_value(v, nv);
        ASSERT_EQ(found, it != ref.vals.end()) << "v=" << v;
        if (found) {
            ASSERT_EQ(nv, *it) << "v=" << v;
        }
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

/// A random domain + matching reference set: a plain range one time in
/// four, otherwise a random (usually holed) value set.
Domain random_domain(std::mt19937& rng, RefModel& ref) {
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
    Domain d = random_domain(rng, ref);
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
                const Domain other = random_domain(rng, oref);
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

        // Equality must hold against a from-scratch rebuild of the same
        // value set, and to_string must agree with it.
        Domain rebuilt =
            Domain::of_values(std::vector<int>(ref.vals.begin(), ref.vals.end()));
        ASSERT_TRUE(d == rebuilt) << d.to_string();
        ASSERT_EQ(d.to_string(), rebuilt.to_string());
    }
}

INSTANTIATE_TEST_SUITE_P(RandomWalks, DomainFuzz, ::testing::Range(0u, 150u));

TEST(DomainFuzz, MovedFromDomainIsEmptyAndReusable) {
    // Eight runs: the intervals live on the heap, so the move steals them.
    Domain d = Domain::of_values({1, 3, 5, 7, 9, 20, 22, 40});
    ASSERT_EQ(d.num_intervals(), 8u);

    Domain moved(std::move(d));
    EXPECT_EQ(moved.size(), 8);
    EXPECT_EQ(moved.num_intervals(), 8u);
    // NOLINTBEGIN(bugprone-use-after-move) — the moved-from contract (empty,
    // reusable) is exactly what is under test here.
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.size(), 0);
    EXPECT_EQ(d.num_intervals(), 0u);

    d = Domain(4, 6);
    EXPECT_EQ(d.size(), 3);
    d = std::move(moved);
    EXPECT_EQ(d.size(), 8);
    EXPECT_TRUE(moved.empty());
    EXPECT_FALSE(moved.is_fixed());
    // NOLINTEND(bugprone-use-after-move)
}

// A holed domain wiping out entirely: the wipeout is trailed as a snapshot,
// and the restore must resurrect the domain with exact bounds and size.
TEST(DomainFuzz, TrailRestoresPackedDomainFromWipeout) {
    Store s;
    const IntVar x = s.new_var(Domain::of_values({0, 2, 4, 6, 8, 64, 66, 130}));
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
    EXPECT_EQ(s.stats().trail_snapshots, 1);
}

}  // namespace
}  // namespace revec::cp
