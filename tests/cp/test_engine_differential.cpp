// Search-tree golden suite for the propagation engine. Event-mask wakeup
// filtering, the priority-bucketed queue, idempotent self-wake suppression
// and the delta trail are all fixpoint-preserving, so a change to any of
// them must leave branch-and-bound's trees exactly as recorded below —
// same status, node/failure/solution/cutoff counts and optimal
// assignment. The random CSPs (random_csp.hpp) cover the propagator
// families the scheduler posts plus the test-oracle decompositions, over
// hole-rich domains, so DOMAIN events and Min/Max/Snapshot trail records
// are all exercised.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "random_csp.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"

namespace revec::cp {
namespace {

using testing::Builder;
using testing::make_builder;
using testing::Model;

/// Solve the builder's model.
SolveResult run(const Builder& build) {
    Store s;
    const Model m = build(s);
    return solve(s, {Phase{m.xs, VarSelect::MinDomain, ValSelect::Min, ""}}, m.objective);
}

/// One recorded search tree.
struct Golden {
    SolveStatus status;
    std::int64_t nodes;
    std::int64_t failures;
    std::int64_t solutions;
    std::int64_t cutoff_prunes;
    std::vector<int> best;
};

constexpr SolveStatus kOpt = SolveStatus::Optimal;
constexpr SolveStatus kUnsat = SolveStatus::Unsat;

// Indexed by seed.
const Golden kGolden[] = {
    {kOpt, 16, 9, 2, 3, {0, 1, 0, 3, 0, 3, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 7}},
    {kUnsat, 922, 462, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 16, 9, 2, 2, {0, 0, 5, 2, 5, 1, 1, 1}},
    {kOpt, 12, 7, 5, 2, {4, 0, 1, 2, 0, 0, 1, 1, -7}},
    {kOpt, 10, 6, 1, 3, {0, 2, 1, 0, 0, 4, 1, 0, 1, 0, 1, 0, 1, 2, 0, 0, 1, 0, 0, 1, 0}},
    {kOpt, 56, 29, 1, 2, {2, 2, 1, 0, 1, 0, 1, 1, 1, 1, 1, 2}},
    {kOpt, 30, 16, 12, 4, {3, 0, 5, 1, 3, -13}},
    {kOpt, 232, 117, 4, 12, {4, 2, 0, 0, 1, 0, 0, 1, 1, -6}},
    {kOpt, 36, 19, 11, 8, {2, 0, 0, 5, 5, 2, -17}},
    {kUnsat, 6, 4, 0, 0, {}},
    {kOpt, 8, 5, 4, 1, {1, 1, 0, 1, 1, -4}},
    {kOpt, 20, 11, 3, 7, {0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -8}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kOpt, 120, 61, 4, 0, {1, 0, 4, 4, 0, 4, 1, 1, 0, 1, 1, 4}},
    {kOpt, 10, 6, 1, 5, {0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 2, 4}},
    {kUnsat, 14, 8, 0, 0, {}},
    {kOpt, 42, 22, 5, 12, {0, 1, 0, 5, 2, 0, 0, 1, 1, 0, 0, 0, -14}},
    {kOpt, 12, 7, 2, 1, {2, 5, 0, 3, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, -5}},
    {kUnsat, 6, 4, 0, 0, {}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kOpt, 74, 38, 10, 5, {5, 2, 3, 0, 0, 5, 1, 1, 1, 1, 1, 5, -22}},
    {kOpt, 14, 8, 3, 2, {3, 4, 0, 1, 0, 1, 4, 1, 0, 0, -7}},
    {kUnsat, 488, 245, 0, 0, {}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 4, 3, 1, 2, {0, 0, 0, 0, 0, 0, 0}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 20, 11, 4, 3, {1, 5, 3, 0, 0, 0, 0, 0, -8}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 36, 19, 18, 1, {4, 5, 2, 6, 0, 1, 0, 5, 0, 0, 0, 0, 1, -26}},
    {kOpt, 6, 4, 1, 3, {0, 3, 1, 0, 0, 0, 1, 2}},
    {kOpt, 60, 31, 24, 0, {5, 5, 4, 5, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, -21}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 12, 7, 2, 0, {4, 1, 0, 2, 5, 3, 1, 0, 0, 0, 1, 1, 0, 0, 1, -18}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 68, 35, 23, 3, {4, 5, 4, 2, 5, 0, 0, 1, 1, 0, 1, 0, 0, 0, -22}},
    {kUnsat, 96, 49, 0, 0, {}},
    {kOpt, 28, 15, 13, 2, {6, 6, 3, 2, 6, 0, 1, 0, 0, -33}},
    {kOpt, 16, 9, 3, 4, {2, 0, 5, 1, 0, 0, 0, 1, 1, 0}},
    {kOpt, 28, 15, 10, 5, {0, 6, 0, 3, 3, 0, 0, -12}},
    {kOpt, 26, 14, 6, 7, {4, 1, 1, 0, 0, 0, 0, 0, 1, -5}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kOpt, 22, 12, 3, 3, {6, 0, 2, 4, 3, 0, 1, 1, 1, -11}},
    {kOpt, 4, 3, 1, 2, {0, 0, 2, 1, 0}},
    {kOpt, 20, 11, 7, 4, {2, 1, 6, 2, 0, 1, 0, 0, 2, 0, 0, -8}},
    {kOpt, 20, 11, 10, 1, {0, 0, 4, 1, 0, 4, 1, 1, 0, -17}},
    {kOpt, 42, 22, 6, 12, {1, 1, 0, 2, 0, 5, 0, 0, 0, 1, 1, 0, 0, 2, -13}},
    {kOpt, 4, 3, 2, 0, {3, 0, 2, 4, 1, 0, 0, 1, 0, 0, 0, 0, 4}},
    {kUnsat, 498, 250, 0, 0, {}},
    {kOpt, 2, 2, 1, 0, {0, 3, 1, 2, 1, 0, 1, 3, 2, 0, 0, 8}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 30, 16, 13, 3, {6, 0, 2, 0, 6, 0, 0, 0, 0, 0, -16}},
    {kOpt, 20, 11, 5, 0, {4, 5, 1, 0, 3, 0, 0, 1, -25}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 48, 25, 25, 0, {3, 6, 6, 0, 6, 0, 0, 3, -21}},
    {kOpt, 10, 6, 1, 1, {1, 0, 2, 4, 0, 0, 1, 0, 0, 0, 2}},
    {kOpt, 32, 17, 11, 3, {0, 0, 0, 3, 4, 5, 3, 0, 0, 0, 1, 0, -17}},
    {kOpt, 12, 7, 3, 3, {0, 3, 4, 6, 1, 2, -11}},
    {kOpt, 22, 12, 4, 0, {4, 4, 3, 3, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1}},
    {kOpt, 2, 2, 2, 0, {1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 3}},
    {kOpt, 36, 19, 10, 9, {5, 0, 0, 6, 0, 1, 0, 0, 0, 0, 0, 0, -17}},
    {kOpt, 6, 4, 1, 3, {0, 4, 0, 0, 0, 0, 0, 0, 0, 0}},
    {kOpt, 20, 11, 7, 0, {4, 5, 0, 1, 0, 0, 1, 0, 1, -18}},
    {kOpt, 14, 8, 7, 1, {1, 0, 4, 1, 0, 0, 0, 1, -11}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 2, 2, 1, 1, {2, 0, 4, 3, 0, 0, 0, 0, 1, 0, 1, -12}},
    {kOpt, 10, 6, 2, 2, {1, 0, 2, 0, 1, 0, 0, 2}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 34, 18, 13, 0, {3, 4, 0, 1, 0, 4, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, -17}},
    {kOpt, 24, 13, 8, 5, {0, 5, 0, 3, 3, 0, 0, -8}},
    {kOpt, 22, 12, 7, 5, {5, 1, 1, 5, 5, 5, 1, 0, 1, 0, 0, 0, 1, 1, -13}},
    {kOpt, 30, 16, 5, 11, {4, 0, 0, 4, 1, 0, 0, 0, 4, 0, 0, -11}},
    {kOpt, 20, 11, 6, 1, {0, 5, 3, 5, 2, 0, 0, 0, 1, 0, -19}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 8, 5, 1, 4, {2, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, -1}},
    {kOpt, 46, 24, 17, 7, {2, 0, 4, 4, 2, 2, -22}},
    {kOpt, 0, 1, 1, 0, {5, 0, 1, 1, 1, 0, 1, 0, 9}},
};

class EngineDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineDifferential, EventEngineMatchesLegacyNodeForNode) {
    const unsigned seed = GetParam();
    const Golden& want = kGolden[seed];
    const SolveResult got = run(make_builder(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(got.status, want.status);
    EXPECT_EQ(got.stats.nodes, want.nodes);
    EXPECT_EQ(got.stats.failures, want.failures);
    EXPECT_EQ(got.stats.solutions, want.solutions);
    EXPECT_EQ(got.stats.cutoff_prunes, want.cutoff_prunes);
    EXPECT_EQ(got.best, want.best);
}

INSTANTIATE_TEST_SUITE_P(RandomCsps, EngineDifferential, ::testing::Range(0u, 80u));

// The masks must actually filter: on a model with hole-punching
// disequalities (pairwise distinct, plus neighbours one apart) wired to a
// bounds-consistent sum, the masks drop more notifications than they
// deliver. The counts are golden.
TEST(EngineDifferential, MasksReduceWakeups) {
    Store s;
    Model m;
    const int n = 6;
    for (int i = 0; i < n; ++i) m.xs.push_back(s.new_var(0, 9));
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) post_not_equal(s, m.xs[i], m.xs[j], 0);
    }
    for (int i = 0; i + 1 < n; ++i) post_not_equal(s, m.xs[i], m.xs[i + 1], 1);
    std::vector<LinTerm> terms;
    for (const IntVar x : m.xs) terms.push_back({1, x});
    m.objective = s.new_var(0, 9 * n);
    terms.push_back({-1, m.objective});
    post_linear_eq(s, terms, 0);
    const SolveResult r =
        solve(s, {Phase{m.xs, VarSelect::MinDomain, ValSelect::Min, ""}}, m.objective);

    EXPECT_EQ(r.stats.nodes, 884);
    EXPECT_EQ(r.value_of(m.objective), 15);
    EXPECT_EQ(r.prop_stats.wakeups, 14208);
    EXPECT_EQ(r.prop_stats.wakeups_filtered, 14629);
    EXPECT_EQ(r.prop_stats.propagations, 7495);
}

}  // namespace
}  // namespace revec::cp
