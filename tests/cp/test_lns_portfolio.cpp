// Differential coverage of the LNS portfolio worker kind. At the cp layer:
// LNS workers are reported, bookkeeping balances, and a never-improving
// hook cannot change the merged outcome. At the sched layer: a portfolio
// with lns_workers > 0 is never worse than one without on the application
// kernels (full-proof equality) and never worse than the heuristic seed
// under a deadline. Standalone LNS runs with one seed are bit-identical
// across invocations.
#include <gtest/gtest.h>

#include <vector>

#include "../lns/lns_fixtures.hpp"
#include "portfolio_models.hpp"
#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/cp/portfolio.hpp"
#include "revec/ir/passes.hpp"
#include "revec/lns/lns.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/sched/model.hpp"

namespace revec {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

sched::Schedule schedule_with(const ir::Graph& g, int threads, int lns_workers,
                              std::int64_t timeout_ms = 10000, int num_slots = -1) {
    sched::ScheduleOptions opts;
    opts.spec = kSpec;
    opts.num_slots = num_slots;
    opts.timeout_ms = timeout_ms;
    opts.solver.threads = threads;
    opts.solver.lns_workers = lns_workers;
    return sched::schedule_kernel(g, opts);
}

TEST(LnsPortfolio, CpLayerReportsLnsWorkersAndBalancedCounters) {
    cp::SolverConfig config;
    config.threads = 2;
    config.lns_workers = 2;
    config.lns_round = [](const cp::LnsRoundContext& ctx) {
        // Never-improving hook: the context must still be well-formed.
        EXPECT_NE(ctx.incumbent, nullptr);
        EXPECT_FALSE(ctx.incumbent->empty());
        EXPECT_NE(ctx.seed, 0u);
        return cp::LnsRoundResult{};
    };
    const cp::PortfolioResult with_lns =
        cp::testing::run_portfolio(cp::testing::random_rcpsp(/*seed=*/5, /*tasks=*/8), config);

    cp::SolverConfig plain = config;
    plain.lns_workers = 0;
    plain.lns_round = nullptr;
    const cp::PortfolioResult without =
        cp::testing::run_portfolio(cp::testing::random_rcpsp(/*seed=*/5, /*tasks=*/8), plain);

    // A hook that never improves cannot change the exact outcome.
    ASSERT_TRUE(with_lns.has_solution());
    ASSERT_TRUE(without.has_solution());
    EXPECT_EQ(with_lns.status, without.status);
    EXPECT_EQ(with_lns.best, without.best);

    ASSERT_EQ(with_lns.workers.size(), 4u);
    int lns_reports = 0;
    for (const cp::WorkerReport& w : with_lns.workers) {
        if (!w.is_lns) {
            EXPECT_EQ(w.lns_rounds, 0);
            continue;
        }
        ++lns_reports;
        EXPECT_EQ(w.label.rfind("lns-", 0), 0u) << w.label;
        EXPECT_EQ(w.lns_rounds, w.lns_accepted + w.lns_rejected);
        EXPECT_EQ(w.lns_accepted, 0);  // the hook never improves
    }
    EXPECT_EQ(lns_reports, 2);
}

TEST(LnsPortfolio, RepairWorkReachesTheEngineCounters) {
    // MATMUL's optimum (11) sits above its critical path (8), so every LNS
    // round runs a repair solve. The CP worker's failure budget is below
    // the proof's (66 failures under the first-fail op phase), so it never
    // cancels the LNS worker, which then runs until its idle limit.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    const lns::testing::Incumbent inc =
        lns::testing::ladder_incumbent(kSpec, g, heur::ladder().size() - 1);
    ASSERT_TRUE(inc.ok);
    ASSERT_GT(inc.makespan, inc.km.critical_path);

    cp::SolverConfig config;
    config.threads = 1;
    config.lns_workers = 1;
    config.profile = true;
    config.initial_incumbent = inc.makespan;
    config.lns_round = lns::make_portfolio_round(inc.km, lns::LnsTuning{});
    config.lns_seed_assignment = lns::complete_assignment(inc.km, inc.start, inc.slot);
    ASSERT_FALSE(config.lns_seed_assignment.empty());
    cp::SearchOptions opts;
    opts.max_failures = 20;
    opts.deadline = Deadline::after_ms(20000);
    const cp::PortfolioResult r = cp::testing::run_portfolio(
        [&inc](cp::Store& s) {
            model::VarTable vt = model::emit_cp(s, inc.km);
            return cp::PostedModel{std::move(vt.phases), vt.makespan};
        },
        config, opts);

    ASSERT_EQ(r.workers.size(), 2u);
    const cp::WorkerReport& cp_report = r.workers[0];
    const cp::WorkerReport& lns_report = r.workers[1];
    ASSERT_TRUE(lns_report.is_lns);
    EXPECT_GT(lns_report.lns_rounds, 0);
    // The repair solves' engine counters and per-class profile reach the
    // LNS worker's report...
    EXPECT_GT(lns_report.prop_stats.propagations, 0);
    const auto profile_runs = [](const cp::SolveWork& w) {
        std::int64_t runs = 0;
        for (const cp::PropProfile& p : w.prop_profile) runs += p.runs;
        return runs;
    };
    EXPECT_EQ(profile_runs(lns_report), lns_report.prop_stats.propagations);
    // ...and the merged totals (no replay: nothing was proved).
    EXPECT_FALSE(cp_report.proved);
    EXPECT_EQ(r.prop_stats.propagations,
              cp_report.prop_stats.propagations + lns_report.prop_stats.propagations);
    EXPECT_EQ(r.stats.failures, cp_report.stats.failures + lns_report.stats.failures);
    EXPECT_EQ(profile_runs(r), r.prop_stats.propagations);
}

TEST(LnsPortfolio, NeverWorseOnApplicationKernelsFullProof) {
    struct Case {
        const char* name;
        ir::Graph g;
        int num_slots;
    };
    apps::RandomKernelOptions kopts;
    kopts.seed = 9;
    kopts.num_ops = 18;
    const Case cases[] = {
        {"matmul", ir::merge_pipeline_ops(apps::build_matmul()), -1},
        {"qrd", ir::merge_pipeline_ops(apps::build_qrd()), 8},
        {"arf", ir::merge_pipeline_ops(apps::build_arf()), -1},
        {"random", ir::merge_pipeline_ops(apps::build_random_kernel(kopts)), -1},
    };
    for (const Case& c : cases) {
        const sched::Schedule without = schedule_with(c.g, 2, 0, 20000, c.num_slots);
        const sched::Schedule with_lns = schedule_with(c.g, 2, 2, 20000, c.num_slots);
        ASSERT_TRUE(without.feasible()) << c.name;
        ASSERT_TRUE(with_lns.feasible()) << c.name;
        // Racing LNS workers can only tighten the shared bound, never
        // loosen it: when both runs prove optimality the makespans agree,
        // and in general the LNS run is never worse.
        EXPECT_LE(with_lns.makespan, without.makespan) << c.name;
        if (without.proven_optimal() && with_lns.proven_optimal()) {
            EXPECT_EQ(with_lns.makespan, without.makespan) << c.name;
        }
    }
}

TEST(LnsPortfolio, NeverWorseThanHeuristicSeedUnderDeadline) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());

    sched::ScheduleOptions heur_opts;
    heur_opts.spec = kSpec;
    heur_opts.num_slots = 8;
    heur_opts.heuristic_only = true;
    const sched::Schedule h = sched::schedule_kernel(g, heur_opts);
    ASSERT_TRUE(h.feasible());

    // Tight deadline: whatever the portfolio manages, strict LNS
    // acceptance plus the merge guarantee it never returns anything worse
    // than the seed.
    const sched::Schedule s = schedule_with(g, 2, 2, /*timeout_ms=*/300, /*num_slots=*/8);
    ASSERT_TRUE(s.feasible());
    EXPECT_LE(s.makespan, h.makespan);
}

TEST(LnsPortfolio, StandaloneRunsAreBitIdenticalAcrossInvocations) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    const lns::testing::Incumbent inc =
        lns::testing::ladder_incumbent(kSpec, g, heur::ladder().size() - 1);
    ASSERT_TRUE(inc.ok);
    ASSERT_GT(inc.makespan, inc.km.critical_path);  // real improvement room

    lns::LnsOptions opts;
    opts.seed = 0xabcdu;
    opts.max_rounds = 8;
    opts.tuning.repair_failures = 800;
    const lns::LnsResult a =
        lns::improve_schedule(inc.km, inc.start, inc.slot, inc.makespan, opts);
    const lns::LnsResult b =
        lns::improve_schedule(inc.km, inc.start, inc.slot, inc.makespan, opts);
    EXPECT_EQ(a.incumbent_trail, b.incumbent_trail);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.stats.nodes, b.stats.nodes);
    EXPECT_TRUE(model::check_schedule(inc.km, a.start, a.slot, a.makespan).empty());
}

}  // namespace
}  // namespace revec
