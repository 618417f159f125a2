// Determinism and cancellation guarantees of the portfolio solver: the same
// seed and thread count must return the identical solution on repeated
// runs (canonical replay), a zero deadline must come back promptly as
// Timeout from every worker with all threads joined, and every worker's
// configuration must follow the one recipe.
#include "revec/cp/portfolio.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "portfolio_models.hpp"
#include "revec/obs/trace.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::cp {
namespace {

using testing::random_rcpsp;
using testing::run_portfolio;

TEST(PortfolioDeterminism, SameSeedSameThreadsSameSolution) {
    const testing::Instance build = random_rcpsp(7, 12, 3);
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

TEST(PortfolioDeterminism, ReplayStopsAtItsFailureBudget) {
    // A pigeonhole trap: with `wide` = 0 ten pigeons share nine holes,
    // which the search refutes only after far more than kReplayFailures
    // failures. The baseline configuration, and so the replay, tries
    // wide = 0 first; workers 1 and 2 jitter their values and restart after
    // 512 failures, so one of them soon tries wide = 1 or 2 and proves the
    // optimum. The replay gives up at its budget and the winner's
    // assignment stands.
    const testing::Instance trap = [](Store& s) -> PostedModel {
        constexpr int kHoles = 9;
        const IntVar wide = s.new_var(0, 2);
        std::vector<IntVar> pigeons;
        for (int i = 0; i <= kHoles; ++i) {
            const IntVar p = s.new_var(0, kHoles);
            post_leq_offset(s, p, 1 - kHoles, wide);  // p <= kHoles - 1 + wide
            for (const IntVar q : pigeons) post_not_equal(s, p, q);
            pigeons.push_back(p);
        }
        std::vector<IntVar> vars{wide};
        vars.insert(vars.end(), pigeons.begin(), pigeons.end());
        const IntVar obj = s.new_var(0, 3);
        PostedModel model;
        model.phases.push_back({vars, VarSelect::SmallestMin, ValSelect::Min, "trap"});
        model.phases.push_back({{obj}, VarSelect::SmallestMin, ValSelect::Min, "obj"});
        model.objective = obj;
        return model;
    };
    SolverConfig cfg;
    cfg.threads = 3;
    obs::TraceSink sink(obs::TraceLevel::Phase);
    SearchOptions opts;
    opts.trace = sink.main();
    const PortfolioResult r = run_portfolio(trap, cfg, opts);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.best.back(), 0);  // the objective, the last variable
    EXPECT_NE(r.best.front(), 0);  // wide: the winner's assignment

    // The merged counters are the workers' plus the replay's.
    std::int64_t worker_failures = 0;
    for (const WorkerReport& w : r.workers) worker_failures += w.stats.failures;
    EXPECT_LE(r.stats.failures - worker_failures, kReplayFailures + 1);

    std::ostringstream os;
    sink.write_jsonl(os);
    int replays = 0;
    for (const obs::ParsedTrack& track : obs::parse_trace(os.str()).tracks) {
        for (const obs::ParsedEvent& e : track.events) {
            if (e.kind != 'E' || e.name != "replay") continue;
            ++replays;
            EXPECT_EQ(e.args.at("found"), 0);
        }
    }
    EXPECT_EQ(replays, 1);
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
        // must have respected it (restart workers re-check the cumulative
        // budget between restarts, so the overshoot is at most one final
        // failure per solve call).
        if (!w.proved) {
            EXPECT_LE(w.stats.failures, 12) << w.label;
        }
    }
}

TEST(PortfolioDeterminism, DiversificationTableIsStable) {
    // Worker 0 walks the sequential tree; every other worker restarts with
    // its own nonzero jitter seed, stable for a given seed.
    for (const std::uint32_t seed : {0u, 42u, 0x5eedu}) {
        const WorkerConfig w0 = worker_config(0, seed);
        EXPECT_EQ(w0.label, "baseline");
        EXPECT_FALSE(w0.restarts);
        EXPECT_EQ(w0.jitter_seed, 0u);

        std::set<std::uint32_t> jitter_seeds;
        for (int k = 1; k < kMaxWorkers; ++k) {
            const WorkerConfig a = worker_config(k, seed);
            const WorkerConfig b = worker_config(k, seed);
            EXPECT_TRUE(a.restarts) << k;
            EXPECT_NE(a.jitter_seed, 0u) << k;
            EXPECT_EQ(a.jitter_seed, b.jitter_seed) << k;
            EXPECT_EQ(a.label, b.label) << k;
            jitter_seeds.insert(a.jitter_seed);
        }
        EXPECT_EQ(jitter_seeds.size(), static_cast<std::size_t>(kMaxWorkers - 1)) << seed;
    }
}

}  // namespace
}  // namespace revec::cp
