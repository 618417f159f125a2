// Determinism and cancellation guarantees of the portfolio solver: the same
// seed and thread count must return the identical solution on repeated
// runs (canonical replay), a zero deadline must come back promptly as
// Timeout from every worker with all threads joined, and the
// diversification table must be stable.
#include "revec/cp/portfolio.hpp"

#include <gtest/gtest.h>

#include "portfolio_models.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::cp {
namespace {

using testing::random_rcpsp;
using testing::run_portfolio;

TEST(PortfolioDeterminism, SameSeedSameThreadsSameSolution) {
    const ModelBuilder build = random_rcpsp(7, 12, 3);
    SolverConfig cfg;
    cfg.threads = 4;
    cfg.seed = 123;

    const PortfolioResult first = run_portfolio(build, cfg);
    ASSERT_EQ(first.status, SolveStatus::Optimal);
    ASSERT_TRUE(first.has_solution());
    for (int run = 1; run < 5; ++run) {
        const PortfolioResult r = run_portfolio(build, cfg);
        EXPECT_EQ(r.status, first.status) << "run " << run;
        // Canonical replay makes the assignment — not just the objective —
        // reproducible even though worker timing varies.
        EXPECT_EQ(r.best, first.best) << "run " << run;
        EXPECT_EQ(r.winner >= 0, first.winner >= 0) << "run " << run;
    }
}

TEST(PortfolioDeterminism, DifferentThreadCountsAgreeOnObjective) {
    const ModelBuilder build = random_rcpsp(21, 11, 2);
    Store ref;
    const PostedModel m = build(ref);

    std::int64_t obj2 = -1;
    std::int64_t obj4 = -1;
    {
        SolverConfig cfg;
        cfg.threads = 2;
        const PortfolioResult r = run_portfolio(build, cfg);
        ASSERT_EQ(r.status, SolveStatus::Optimal);
        obj2 = r.value_of(m.objective);
    }
    {
        SolverConfig cfg;
        cfg.threads = 4;
        const PortfolioResult r = run_portfolio(build, cfg);
        ASSERT_EQ(r.status, SolveStatus::Optimal);
        obj4 = r.value_of(m.objective);
    }
    EXPECT_EQ(obj2, obj4);
}

TEST(PortfolioDeterminism, ZeroDeadlineTimesOutPromptlyWithoutThreadLeak) {
    const ModelBuilder build = random_rcpsp(3, 14, 3);
    SolverConfig cfg;
    cfg.threads = 4;
    SearchOptions opts;
    opts.deadline = Deadline::after_ms(0);

    const Stopwatch watch;
    // solve_portfolio joins every worker before returning, so merely
    // returning (quickly, with no work recorded) is the no-leak evidence;
    // the TSan CI job additionally checks the shared-bound path.
    const PortfolioResult r = run_portfolio(build, cfg, opts);
    EXPECT_EQ(r.status, SolveStatus::Timeout);
    EXPECT_FALSE(r.has_solution());
    EXPECT_EQ(r.stats.nodes, 0);
    EXPECT_LT(watch.elapsed_ms(), 5000.0);
    ASSERT_EQ(r.workers.size(), 4u);
    for (const WorkerReport& w : r.workers) {
        EXPECT_EQ(w.status, SolveStatus::Timeout);
        EXPECT_FALSE(w.proved);
    }
}

TEST(PortfolioDeterminism, FailureLimitAppliesPerWorker) {
    const ModelBuilder build = random_rcpsp(9, 14, 2);
    SolverConfig cfg;
    cfg.threads = 4;
    SearchOptions opts;
    opts.max_failures = 10;
    const PortfolioResult r = run_portfolio(build, cfg, opts);
    for (const WorkerReport& w : r.workers) {
        // A worker may finish (prove) under the limit; one that did not
        // must have respected it (restart workers re-check the cumulative
        // budget between restarts, so the overshoot is at most one final
        // failure per solve call).
        if (!w.proved) EXPECT_LE(w.stats.failures, 12) << w.label;
    }
}

TEST(PortfolioDeterminism, DiversificationTableIsStable) {
    const WorkerConfig w0 = diversified_config(0, 42);
    EXPECT_EQ(w0.label, "baseline");
    EXPECT_TRUE(w0.keep_phase_heuristics);
    EXPECT_FALSE(w0.restarts);
    EXPECT_EQ(w0.jitter_seed, 0u);

    for (int k = 1; k < 16; ++k) {
        const WorkerConfig a = diversified_config(k, 42);
        const WorkerConfig b = diversified_config(k, 42);
        EXPECT_EQ(a.label, b.label) << k;
        EXPECT_EQ(a.jitter_seed, b.jitter_seed) << k;
        EXPECT_EQ(a.var_select, b.var_select) << k;
        EXPECT_EQ(a.val_select, b.val_select) << k;
    }
}

}  // namespace
}  // namespace revec::cp
