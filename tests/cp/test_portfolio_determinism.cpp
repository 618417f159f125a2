// Determinism and cancellation guarantees of the portfolio solver: at 1
// thread the same seed must return the identical result on repeated runs,
// at N threads the identical proven objective; a zero deadline must come
// back promptly as Timeout from every worker with all threads joined; and
// every worker's jitter seed must follow the one recipe.
#include "revec/cp/portfolio.hpp"

#include <gtest/gtest.h>

#include <set>

#include "portfolio_models.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::cp {
namespace {

using testing::random_rcpsp;
using testing::run_portfolio;

TEST(PortfolioDeterminism, SameSeedSameThreadsSameSolution) {
    const testing::Instance build = random_rcpsp(7, 12, 3);
    Store ref;
    const PostedModel m = build(ref);
    for (const int threads : {1, 2, 4}) {
        SolverConfig cfg;
        cfg.threads = threads;
        cfg.seed = 123;

        const PortfolioResult first = run_portfolio(build, cfg);
        ASSERT_EQ(first.status, SolveStatus::Optimal) << threads;
        ASSERT_TRUE(first.has_solution()) << threads;
        for (int run = 1; run < 5; ++run) {
            const PortfolioResult r = run_portfolio(build, cfg);
            EXPECT_EQ(r.status, first.status) << threads << " run " << run;
            EXPECT_EQ(r.value_of(m.objective), first.value_of(m.objective))
                << threads << " run " << run;
            if (threads == 1) {
                // One worker, no timing: the whole result is reproducible.
                // With more, which worker reaches the optimum first varies,
                // and so can the assignment.
                EXPECT_EQ(r.best, first.best) << "run " << run;
                EXPECT_EQ(r.stats.nodes, first.stats.nodes) << "run " << run;
                EXPECT_EQ(r.stats.failures, first.stats.failures) << "run " << run;
            }
        }
    }
}

TEST(PortfolioDeterminism, DifferentThreadCountsAgreeOnObjective) {
    const testing::Instance build = random_rcpsp(21, 11, 2);
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
    const testing::Instance build = random_rcpsp(3, 14, 3);
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
    const testing::Instance build = random_rcpsp(9, 14, 2);
    SolverConfig cfg;
    cfg.threads = 4;
    SearchOptions opts;
    opts.max_failures = 10;
    const PortfolioResult r = run_portfolio(build, cfg, opts);
    for (const WorkerReport& w : r.workers) {
        // A worker may finish (prove) under the limit; one that did not
        // must have respected it: the limit counts the failures of all its
        // restarts, and the search stops at the first failure past it.
        if (!w.proved) {
            EXPECT_LE(w.stats.failures, 11) << w.config_index;
        }
    }
}

TEST(PortfolioDeterminism, DiversificationTableIsStable) {
    // Worker 0 runs cp::solve unjittered; every other worker runs it with
    // its own nonzero jitter seed, stable for a given seed.
    for (const std::uint32_t seed : {0u, 42u, 0x5eedu}) {
        EXPECT_EQ(worker_jitter_seed(0, seed), 0u);

        std::set<std::uint32_t> jitter_seeds;
        for (int k = 1; k < kMaxWorkers; ++k) {
            const std::uint32_t a = worker_jitter_seed(k, seed);
            EXPECT_NE(a, 0u) << k;
            EXPECT_EQ(a, worker_jitter_seed(k, seed)) << k;
            jitter_seeds.insert(a);
        }
        EXPECT_EQ(jitter_seeds.size(), static_cast<std::size_t>(kMaxWorkers - 1)) << seed;
    }
    // The recipe itself is pinned: a change to it moves every parallel tree.
    EXPECT_EQ(worker_jitter_seed(1, 0x5eedu), 0xc1466cd7u);
}

}  // namespace
}  // namespace revec::cp
