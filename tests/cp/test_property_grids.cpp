// Parameterized property grids for the global constraints: randomized
// instances checked against brute force for both soundness (no solution
// lost) and completeness at the leaves (every accepted full assignment
// really satisfies the constraint).
#include <gtest/gtest.h>

#include <optional>

#include "revec/cp/cumulative.hpp"
#include "revec/cp/diff2.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/search.hpp"
#include "revec/support/rng.hpp"

namespace revec::cp {
namespace {

// ---------------------------------------------------------------------------
// Cumulative grid
// ---------------------------------------------------------------------------

class CumulativeGrid : public ::testing::TestWithParam<unsigned> {};

TEST_P(CumulativeGrid, SolutionSetMatchesBruteForce) {
    XorShift rng(GetParam());
    const int n = 3;
    const int horizon = 3 + rng.below(3);
    const int cap = 1 + rng.below(3);
    int durations[n];
    int demands[n];
    for (int i = 0; i < n; ++i) {
        durations[i] = 1 + rng.below(3);
        demands[i] = 1 + rng.below(2);
    }

    const auto feasible = [&](const int* starts) {
        for (int t = 0; t <= horizon + 3; ++t) {
            int use = 0;
            for (int i = 0; i < n; ++i) {
                if (starts[i] <= t && t < starts[i] + durations[i]) use += demands[i];
            }
            if (use > cap) return false;
        }
        return true;
    };

    // Leaf acceptance must match brute force exactly.
    for (int s0 = 0; s0 <= horizon; ++s0) {
        for (int s1 = 0; s1 <= horizon; ++s1) {
            for (int s2 = 0; s2 <= horizon; ++s2) {
                Store s;
                const IntVar a = s.new_var(s0, s0);
                const IntVar b = s.new_var(s1, s1);
                const IntVar c = s.new_var(s2, s2);
                post_cumulative(s,
                                {{a, durations[0], demands[0]},
                                 {b, durations[1], demands[1]},
                                 {c, durations[2], demands[2]}},
                                cap);
                const int starts[n] = {s0, s1, s2};
                ASSERT_EQ(s.propagate(), feasible(starts))
                    << "seed " << GetParam() << " starts " << s0 << "," << s1 << "," << s2;
            }
        }
    }

    // Root propagation must not lose any supported value.
    Store s;
    const IntVar a = s.new_var(0, horizon);
    const IntVar b = s.new_var(0, horizon);
    const IntVar c = s.new_var(0, horizon);
    post_cumulative(s,
                    {{a, durations[0], demands[0]},
                     {b, durations[1], demands[1]},
                     {c, durations[2], demands[2]}},
                    cap);
    const bool root_ok = s.propagate();
    bool any = false;
    for (int s0 = 0; s0 <= horizon; ++s0) {
        for (int s1 = 0; s1 <= horizon; ++s1) {
            for (int s2 = 0; s2 <= horizon; ++s2) {
                const int starts[n] = {s0, s1, s2};
                if (!feasible(starts)) continue;
                any = true;
                ASSERT_TRUE(root_ok);
                ASSERT_TRUE(s.dom(a).contains(s0)) << "seed " << GetParam();
                ASSERT_TRUE(s.dom(b).contains(s1)) << "seed " << GetParam();
                ASSERT_TRUE(s.dom(c).contains(s2)) << "seed " << GetParam();
            }
        }
    }
    if (!any) {
        EXPECT_FALSE(root_ok && satisfy(s, {Phase{{a, b, c}, VarSelect::InputOrder,
                                                  ValSelect::Min, ""}})
                                        .status == SolveStatus::Optimal);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CumulativeGrid, ::testing::Range(1u, 40u));

// ---------------------------------------------------------------------------
// Diff2 grid
// ---------------------------------------------------------------------------

class Diff2Grid : public ::testing::TestWithParam<unsigned> {};

TEST_P(Diff2Grid, SolutionCountMatchesBruteForce) {
    XorShift rng(GetParam());
    const int n = 3;
    const int span = 3;     // origins 0..span
    const int rows = 1 + rng.below(2);
    int widths[n];
    for (int i = 0; i < n; ++i) widths[i] = 1 + rng.below(2);

    const auto overlap = [&](int x1, int y1, int w1, int x2, int y2, int w2) {
        return x1 < x2 + w2 && x2 < x1 + w1 && y1 == y2;  // height 1 rows
    };

    // Count brute-force solutions and solver-accepted leaves.
    int truth = 0;
    int accepted = 0;
    for (int x0 = 0; x0 <= span; ++x0)
    for (int y0 = 0; y0 <= rows; ++y0)
    for (int x1 = 0; x1 <= span; ++x1)
    for (int y1 = 0; y1 <= rows; ++y1)
    for (int x2 = 0; x2 <= span; ++x2)
    for (int y2 = 0; y2 <= rows; ++y2) {
        const bool ok = !overlap(x0, y0, widths[0], x1, y1, widths[1]) &&
                        !overlap(x0, y0, widths[0], x2, y2, widths[2]) &&
                        !overlap(x1, y1, widths[1], x2, y2, widths[2]);
        truth += ok;

        Store s;
        std::vector<Rect> rects;
        const int xs[3] = {x0, x1, x2};
        const int ys[3] = {y0, y1, y2};
        for (int i = 0; i < n; ++i) {
            rects.push_back(Rect{s.new_var(xs[i], xs[i]), s.new_var(ys[i], ys[i]),
                                 s.new_var(widths[i], widths[i]), 1});
        }
        post_diff2(s, rects);
        const bool solver_ok = s.propagate();
        accepted += solver_ok;
        ASSERT_EQ(solver_ok, ok) << "seed " << GetParam() << " at " << x0 << y0 << x1 << y1
                                 << x2 << y2;
    }
    EXPECT_EQ(truth, accepted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Diff2Grid, ::testing::Range(1u, 12u));

// ---------------------------------------------------------------------------
// AllDifferent grid over its pairwise disequality decomposition (the form
// the engine probes post): root propagation never removes a value that
// some all-distinct assignment supports, and search finds no solution
// when none exists.
// ---------------------------------------------------------------------------

class AllDiffGrid : public ::testing::TestWithParam<unsigned> {};

TEST_P(AllDiffGrid, NeverLosesSupportedValues) {
    XorShift rng(GetParam());
    const int n = 4;
    // Random sub-domains over {0..4}.
    std::vector<std::vector<int>> doms(n);
    for (auto& d : doms) {
        for (int v = 0; v <= 4; ++v) {
            if (rng.below(3) != 0) d.push_back(v);
        }
        if (d.empty()) d.push_back(rng.below(5));
    }

    Store s;
    std::vector<IntVar> xs;
    for (const auto& d : doms) xs.push_back(s.new_var(Domain::of_values(d)));
    for (std::size_t i = 0; i < xs.size(); ++i) {
        for (std::size_t j = i + 1; j < xs.size(); ++j) post_not_equal(s, xs[i], xs[j]);
    }
    const bool root_ok = s.propagate();

    // Brute force: enumerate all assignments from the original domains and
    // record, per (variable, value), whether some all-distinct assignment
    // supports it.
    bool supported[4][5] = {};
    bool any_support = false;
    for (const int v0 : doms[0])
    for (const int v1 : doms[1])
    for (const int v2 : doms[2])
    for (const int v3 : doms[3]) {
        const int a[4] = {v0, v1, v2, v3};
        bool distinct = true;
        for (int i = 0; i < n && distinct; ++i) {
            for (int j = i + 1; j < n; ++j) {
                if (a[i] == a[j]) {
                    distinct = false;
                    break;
                }
            }
        }
        if (!distinct) continue;
        any_support = true;
        for (int i = 0; i < n; ++i) supported[i][a[i]] = true;
    }

    for (int var = 0; var < n; ++var) {
        for (int val = 0; val <= 4; ++val) {
            if (supported[var][val]) {
                ASSERT_TRUE(root_ok) << "seed " << GetParam();
                ASSERT_TRUE(s.dom(xs[static_cast<std::size_t>(var)]).contains(val))
                    << "seed " << GetParam() << " x" << var << "=" << val;
            }
        }
    }
    if (!any_support) {
        const SolveResult r =
            satisfy(s, {Phase{xs, VarSelect::MinDomain, ValSelect::Min, ""}});
        EXPECT_NE(r.status, SolveStatus::Optimal) << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllDiffGrid, ::testing::Range(1u, 40u));

}  // namespace
}  // namespace revec::cp
