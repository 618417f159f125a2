// Search-tree golden suite for the propagation engine. Event-mask wakeup
// filtering, the priority-bucketed queue, idempotent self-wake
// suppression, the delta/word trail and packed domains are all
// fixpoint-preserving, so branch-and-bound explores exactly the tree of
// the original wake-on-any-change, single-FIFO, full-snapshot engine. The
// golden table below was recorded while that engine still existed and a
// differential test proved the two trees equal seed by seed; every solve
// must keep matching it — same status, node/failure/solution/cutoff counts
// and optimal assignment. The random CSPs carry hole-rich domains, so
// DOMAIN events, packed domains and word-diff trailing are all exercised.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "revec/cp/alldifferent.hpp"
#include "revec/cp/arith.hpp"
#include "revec/cp/count.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/element.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/reified.hpp"
#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"

namespace revec::cp {
namespace {

/// Post the same model into any store. Returns the decision variables and
/// the objective.
struct Model {
    std::vector<IntVar> xs;
    IntVar objective;
};

using Builder = std::function<Model(Store&)>;

/// A random CSP over every propagator family. Deterministic in the seed.
Builder make_builder(unsigned seed) {
    return [seed](Store& s) -> Model {
        std::mt19937 rng(seed);
        const auto pick = [&](int lo, int hi) {
            return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
        };
        const int n = pick(4, 6);
        const int max_val = pick(4, 6);

        Model m;
        for (int i = 0; i < n; ++i) {
            if (rng() % 3 == 0) {
                // Hole-rich domain: a random value subset.
                std::vector<int> values;
                const int k = pick(2, max_val + 1);
                for (int j = 0; j < k; ++j) values.push_back(pick(0, max_val));
                values.push_back(pick(0, max_val));  // ensure non-empty spread
                m.xs.push_back(s.new_var(Domain::of_values(values)));
            } else {
                m.xs.push_back(s.new_var(0, max_val));
            }
        }
        const auto var = [&] { return m.xs[static_cast<std::size_t>(pick(0, n - 1))]; };

        const int num_constraints = pick(3, 6);
        for (int c = 0; c < num_constraints; ++c) {
            switch (rng() % 8) {
                case 0:
                    post_linear_leq(s, {{pick(1, 3), var()}, {pick(-3, 3), var()}},
                                    pick(0, 2 * max_val));
                    break;
                case 1:
                    post_not_equal(s, var(), var(), pick(-1, 1));
                    break;
                case 2: {
                    const int k = pick(2, n);
                    post_all_different(
                        s, std::vector<IntVar>(m.xs.begin(), m.xs.begin() + k));
                    break;
                }
                case 3: {
                    std::vector<CumulTask> tasks;
                    const int dur = pick(1, 2);
                    for (const IntVar x : m.xs) tasks.push_back({x, dur, 1});
                    post_cumulative(s, tasks, pick(1, 2));
                    break;
                }
                case 4: {
                    std::vector<int> table;
                    for (int i = 0; i <= max_val; ++i) table.push_back(pick(0, max_val));
                    post_element_const(s, var(), table, var());
                    break;
                }
                case 5: {
                    const BoolVar p = s.new_bool();
                    const BoolVar q = s.new_bool();
                    post_reified_eq(s, p, var(), var());
                    post_reified_eq_const(s, q, var(), pick(0, max_val));
                    post_implies(s, p, q);
                    break;
                }
                case 6: {
                    std::vector<BoolVar> bs;
                    const int k = pick(2, 4);
                    for (int i = 0; i < k; ++i) {
                        const BoolVar b = s.new_bool();
                        post_reified_eq_const(s, b, var(), pick(0, max_val));
                        bs.push_back(b);
                    }
                    const IntVar total = s.new_var(pick(0, 1), pick(1, k));
                    post_bool_sum(s, bs, total);
                    break;
                }
                default: {
                    const IntVar z = s.new_var(0, max_val);
                    post_max(s, z, {var(), var(), var()});
                    post_linear_leq(s, {{1, z}}, pick(1, max_val));
                    break;
                }
            }
        }

        // Objective: minimize a signed weighted sum.
        std::vector<LinTerm> terms;
        int span = 1;
        for (const IntVar x : m.xs) {
            const int w = pick(-2, 2);
            terms.push_back({w, x});
            span += std::abs(w) * max_val;
        }
        m.objective = s.new_var(-span, span, "obj");
        terms.push_back({-1, m.objective});
        post_linear_eq(s, terms, 0);
        return m;
    };
}

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
    {kOpt, 6, 4, 3, 1, {1, 2, 0, 4, 3, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 4, 1, 3, 4, -1}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 6, 4, 2, 1, {0, 1, 4, 3, 2, 3, 1, 1, 0, 0, 0, 1, 1, 2, 3, -6}},
    {kOpt, 16, 9, 2, 1, {0, 4, 1, 2, 5, 1, 1, 11}},
    {kOpt, 32, 17, 6, 4, {0, 1, 4, 0, 4, 0, 0, -10}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 54, 28, 6, 10, {2, 4, 4, 0, 1, 2, 4, 4, 0, 2, 1, 1, 1, 1, 0, 1, -13}},
    {kOpt, 30, 16, 12, 4, {3, 0, 5, 1, 3, -13}},
    {kOpt, 22, 12, 5, 0, {4, 4, 0, 1, 1, 3, 5, 1, 1, 0, 0, 0, 1, 1, -3}},
    {kOpt, 36, 19, 11, 8, {2, 0, 0, 5, 5, 2, -17}},
    {kUnsat, 6, 4, 0, 0, {}},
    {kOpt, 8, 5, 4, 1, {1, 1, 0, 1, 1, -4}},
    {kOpt, 22, 12, 4, 2, {0, 4, 3, 1, 0, 0, 1, 1, -6}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 4, 3, 2, 1, {4, 0, 4, 0, 4, 0, 2, 3, 4, 0, 0, -12}},
    {kOpt, 6, 4, 2, 2, {2, 1, 0, 1, 1, 2, 1, 3, 1, 2, 2, 0, 0, 7}},
    {kOpt, 14, 8, 3, 3, {0, 3, 0, 4, 4, 2, 0, 4, 0, 1, 4, 5, 6, 5, 0, 6, 4, 2, 1, 4, -7}},
    {kOpt, 8, 5, 1, 3, {0, 2, 1, 0, 0, 0, 2, 1, 3, 4, 4, 2}},
    {kOpt, 16, 9, 5, 4, {5, 0, 1, 1, 2, 0, 0, 1, 5, 5, 1, 3, 0, 3, 0, 4, 2, 1, 1, -8}},
    {kOpt, 4, 3, 1, 1, {5, 0, 0, 3, 5, 0, 0, 1, 1, 2, 3, 5, 5, 0, 5, 3, 2, 0, 2, 5, 4, 5, -4}},
    {kUnsat, 18, 10, 0, 0, {}},
    {kUnsat, 46, 24, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 14, 8, 7, 1, {6, 2, 1, 6, 0, 0, 6, 4, 5, 1, 1, 2, 1, 2, -7}},
    {kUnsat, 358, 180, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 4, 3, 1, 2, {0, 0, 0, 0, 0, 0, 0}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 34, 18, 16, 2, {4, 5, 2, 6, 0, 0, 2, 6, 5, 5, 4, 0, 5, 0, 0, 0, 0, 1, -26}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 60, 31, 24, 0, {5, 5, 4, 5, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, -21}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 26, 14, 4, 1, {2, 0, 5, 2, 0, 5, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kUnsat, 96, 49, 0, 0, {}},
    {kOpt, 28, 15, 14, 1, {6, 6, 3, 2, 6, 6, 5, 3, 6, 5, 6, 3, 0, 0, -33}},
    {kOpt, 36, 19, 12, 0, {2, 5, 0, 1, 6, 0, 0, -9}},
    {kOpt, 28, 15, 10, 5, {0, 6, 0, 3, 3, 0, 0, -12}},
    {kOpt, 20, 11, 5, 6, {4, 0, 4, 0, 2, 0, 0, 4, 3, 1, 2, 4, -18}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kOpt, 20, 11, 3, 7, {1, 0, 2, 2, 0, 6, 0, 1, 1, 1, 0, 6, 4, 2, 6, 5, -2}},
    {kOpt, 14, 8, 6, 2, {0, 5, 2, 4, 2, -14}},
    {kOpt, 20, 11, 7, 4, {2, 1, 6, 2, 0, 1, 0, 0, 2, 0, 0, -8}},
    {kOpt, 20, 11, 10, 1, {0, 0, 4, 1, 0, 4, 1, 1, 0, -17}},
    {kOpt, 22, 12, 5, 6, {6, 4, 5, 2, 0, 1, 4, 6, 6, 3, 6, 1, 1, 0, 6, 1, 2, 6, 1, 2, 0, 0, 0, -10}},
    {kOpt, 4, 3, 2, 0, {3, 0, 2, 4, 1, 0, 0, 1, 0, 0, 0, 0, 4}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kOpt, 2, 2, 1, 0, {0, 3, 1, 2, 1, 0, 1, 3, 2, 0, 0, 8}},
    {kUnsat, 10, 6, 0, 0, {}},
    {kOpt, 30, 16, 13, 3, {6, 0, 2, 0, 6, 0, 0, 0, 0, 0, -16}},
    {kOpt, 20, 11, 5, 0, {4, 5, 1, 0, 3, 0, 0, 1, -25}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kOpt, 42, 22, 13, 9, {3, 0, 6, 0, 6, 0, 0, 3, -18}},
    {kOpt, 6, 4, 2, 1, {0, 1, 6, 3, 1, 6, 5, 6, 6, 6, 4, 3, 1, 0, 0, 3, 2, 3, 0, 0, -4}},
    {kOpt, 182, 92, 6, 0, {0, 0, 0, 1, 0, 5, 1, 0, 0, 0, 0, 5, 5, 1, 3, 3, -5}},
    {kOpt, 26, 14, 4, 8, {0, 3, 5, 6, 1, 2, 2, 0, 6, 5, 4, 3, 6, 0, 0, 0, -11}},
    {kOpt, 12, 7, 2, 4, {4, 1, 3, 0, 0, 0, 1, 0, 0, 1, 0, 1, -3}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kUnsat, 124, 63, 0, 0, {}},
    {kOpt, 22, 12, 4, 8, {2, 4, 0, 0, 0, 0, 4, 3, 0, 3, 3, -6}},
    {kOpt, 20, 11, 7, 0, {4, 5, 0, 1, 0, 0, 1, 0, 1, -18}},
    {kOpt, 8, 5, 2, 3, {0, 2, 4, 1, 0, 0, 0, 1, -4}},
    {kUnsat, 0, 1, 0, 0, {}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kOpt, 10, 6, 2, 2, {1, 0, 2, 0, 1, 0, 0, 2}},
    {kOpt, 22, 12, 4, 7, {1, 0, 6, 0, -11}},
    {kOpt, 34, 18, 13, 0, {3, 4, 0, 1, 0, 4, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, -17}},
    {kOpt, 24, 13, 8, 5, {0, 5, 0, 3, 3, 0, 0, -8}},
    {kUnsat, 2, 2, 0, 0, {}},
    {kOpt, 16, 9, 4, 4, {4, 1, 0, 3, 2, 0, 0, 0, 4, 2, 2, 5, 0, 1, 3, -9}},
    {kOpt, 28, 15, 6, 5, {3, 5, 4, 0, 2, 0, 2, 4, 2, 4, 2, 2, 0, 4, 5, 3, 3, 5, 0, 0, 0, 0, 0, -15}},
    {kOpt, 50, 26, 12, 12, {1, 6, 2, 3, 0, 6, 1, 0, 0, 0, 1, 3, 1, 2, 0, 1, 1, 3, 1, 1, -13}},
    {kOpt, 8, 5, 1, 4, {2, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, -1}},
    {kOpt, 46, 24, 17, 7, {2, 0, 4, 4, 2, 2, -22}},
    {kOpt, 0, 1, 1, 0, {6, 0, 1, 1, 1, 1, 6, 6, 3, 4, 2, 6, 0, 0, 0, 0, -2}},
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
// (not_equal/all_different) wired to bounds-consistent consumers, most
// notifications are dropped by the masks. The counts are golden; the
// original engine woke every watcher (10 405 wakeups).
TEST(EngineDifferential, MasksReduceWakeups) {
    Store s;
    Model m;
    const int n = 6;
    for (int i = 0; i < n; ++i) m.xs.push_back(s.new_var(0, 9));
    post_all_different(s, m.xs);
    for (int i = 0; i + 1 < n; ++i) post_not_equal(s, m.xs[i], m.xs[i + 1], 1);
    std::vector<LinTerm> terms;
    for (const IntVar x : m.xs) terms.push_back({1, x});
    m.objective = s.new_var(0, 9 * n, "obj");
    terms.push_back({-1, m.objective});
    post_linear_eq(s, terms, 0);
    const SolveResult r =
        solve(s, {Phase{m.xs, VarSelect::MinDomain, ValSelect::Min, ""}}, m.objective);

    EXPECT_EQ(r.stats.nodes, 510);
    EXPECT_EQ(r.value_of(m.objective), 15);
    EXPECT_EQ(r.prop_stats.wakeups, 6737);
    EXPECT_EQ(r.prop_stats.wakeups_filtered, 3846);
    EXPECT_EQ(r.prop_stats.propagations, 3224);
}

}  // namespace
}  // namespace revec::cp
