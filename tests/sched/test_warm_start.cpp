// Warm start semantics: seeding the exact search with the heuristic
// incumbent must never change the optimum (differential vs the cold
// solver), must strictly shrink the explored tree, and must guarantee an
// anytime result — a verify-clean heuristic schedule even under a zero
// deadline — for every application kernel.
#include <gtest/gtest.h>

#include <string>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/ir/passes.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"
#include "revec/support/assert.hpp"

namespace revec::sched {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

ir::Graph kernel_by_name(const std::string& name) {
    if (name == "matmul") return ir::merge_pipeline_ops(apps::build_matmul());
    if (name == "qrd") return ir::merge_pipeline_ops(apps::build_qrd());
    if (name == "arf") return ir::merge_pipeline_ops(apps::build_arf());
    if (name == "detect") return ir::merge_pipeline_ops(apps::build_detect());
    throw revec::Error("unknown kernel " + name);
}

class WarmStartDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(WarmStartDifferential, SameOptimumAsColdSearch) {
    const ir::Graph g = kernel_by_name(GetParam());

    ScheduleOptions cold;
    cold.warm_start = false;
    cold.timeout_ms = 60000;
    const Schedule cs = schedule_kernel(g, cold);
    ASSERT_TRUE(cs.proven_optimal()) << GetParam();

    ScheduleOptions warm;
    warm.warm_start = true;
    warm.timeout_ms = 60000;
    const Schedule ws = schedule_kernel(g, warm);
    ASSERT_TRUE(ws.proven_optimal()) << GetParam();

    EXPECT_EQ(ws.makespan, cs.makespan) << GetParam();
    EXPECT_TRUE(verify_schedule(kSpec, g, ws).empty()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kernels, WarmStartDifferential,
                         ::testing::Values("matmul", "qrd", "arf"));

class WarmStartNodeCount : public ::testing::TestWithParam<const char*> {};

TEST_P(WarmStartNodeCount, ExploresStrictlyFewerNodes) {
    // The seeded incumbent prunes from the first branch on, so the warm
    // tree must be a strict subset of the cold tree (acceptance criterion).
    const ir::Graph g = kernel_by_name(GetParam());

    ScheduleOptions cold;
    cold.warm_start = false;
    cold.timeout_ms = 60000;
    const Schedule cs = schedule_kernel(g, cold);
    ASSERT_TRUE(cs.proven_optimal()) << GetParam();

    ScheduleOptions warm = cold;
    warm.warm_start = true;
    const Schedule ws = schedule_kernel(g, warm);
    ASSERT_TRUE(ws.proven_optimal()) << GetParam();

    EXPECT_LT(ws.stats.nodes, cs.stats.nodes) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kernels, WarmStartNodeCount, ::testing::Values("matmul", "qrd"));

/// Verify-clean and simulates bit-exactly.
void expect_runs_clean(const ir::Graph& g, const Schedule& s, const std::string& name) {
    ASSERT_TRUE(s.feasible()) << name;
    const auto problems = verify_schedule(kSpec, g, s);
    ASSERT_TRUE(problems.empty()) << name << ": " << problems.front();

    const codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
    const sim::SimResult run = sim::simulate(kSpec, g, prog);
    EXPECT_TRUE(run.outputs_match) << name << " max err " << run.max_output_error;
    EXPECT_TRUE(run.violations.empty())
        << name << ": " << (run.violations.empty() ? "" : run.violations.front());
}

class ZeroDeadlineFallback : public ::testing::TestWithParam<const char*> {};

TEST_P(ZeroDeadlineFallback, HeuristicScheduleForEveryAppKernel) {
    // Acceptance criterion: with the deadline at 0 the scheduler still
    // returns a verify-clean heuristic schedule for every apps/ kernel,
    // and the schedule simulates bit-exactly. Every paper kernel's
    // heuristic makespan meets model::makespan_lower_bound, so the
    // schedule comes back proven optimal before the deadline is read.
    const ir::Graph g = kernel_by_name(GetParam());
    ScheduleOptions opts;
    opts.timeout_ms = 0;
    const Schedule s = schedule_kernel(g, opts);
    ASSERT_EQ(s.status, cp::SolveStatus::Optimal) << GetParam();
    EXPECT_TRUE(s.bound_closed) << GetParam();
    expect_runs_clean(g, s, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, ZeroDeadlineFallback,
                         ::testing::Values("matmul", "qrd", "arf", "detect"));

TEST(ZeroDeadlineFallback, HeuristicScheduleWhenTheBoundIsMissed) {
    // A random kernel whose heuristic makespan (27) misses the bound (24,
    // also the optimum): the exact search is needed, finds nothing at a
    // zero deadline, and the heuristic schedule is the anytime answer.
    apps::RandomKernelOptions kopts;
    kopts.seed = 15;
    kopts.num_ops = 20;
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));
    ScheduleOptions opts;
    opts.timeout_ms = 0;
    const Schedule s = schedule_kernel(g, opts);
    ASSERT_EQ(s.status, cp::SolveStatus::HeuristicFallback);
    EXPECT_FALSE(s.bound_closed);
    EXPECT_EQ(s.lower_bound, 24);
    EXPECT_EQ(s.makespan, 27);
    expect_runs_clean(g, s, "random seed 15");
}

TEST(WarmStart, HeuristicOnlyMatchesFallbackShape) {
    const ir::Graph g = kernel_by_name("matmul");
    ScheduleOptions opts;
    opts.heuristic_only = true;
    const Schedule s = schedule_kernel(g, opts);
    ASSERT_EQ(s.status, cp::SolveStatus::HeuristicFallback);
    EXPECT_TRUE(verify_schedule(kSpec, g, s).empty());
    EXPECT_EQ(s.stats.nodes, 0);  // the exact solver never ran
}

TEST(WarmStart, HeuristicMakespanNeverBeatsTheOptimum) {
    // Sanity on the incumbent hand-off: the heuristic bound can only be
    // above (or at) the exact optimum.
    for (const char* name : {"matmul", "qrd", "arf", "detect"}) {
        const ir::Graph g = kernel_by_name(name);
        ScheduleOptions heur_opts;
        heur_opts.heuristic_only = true;
        const Schedule h = schedule_kernel(g, heur_opts);
        ASSERT_TRUE(h.feasible()) << name;

        ScheduleOptions exact;
        exact.timeout_ms = 60000;
        const Schedule s = schedule_kernel(g, exact);
        ASSERT_TRUE(s.proven_optimal()) << name;
        EXPECT_GE(h.makespan, s.makespan) << name;
    }
}

TEST(WarmStart, PortfolioAcceptsSeededIncumbent) {
    const ir::Graph g = kernel_by_name("matmul");
    ScheduleOptions opts;
    opts.timeout_ms = 60000;
    opts.solver.threads = 2;
    const Schedule s = schedule_kernel(g, opts);
    ASSERT_TRUE(s.proven_optimal());
    EXPECT_TRUE(verify_schedule(kSpec, g, s).empty());

    ScheduleOptions cold = opts;
    cold.warm_start = false;
    const Schedule c = schedule_kernel(g, cold);
    ASSERT_TRUE(c.proven_optimal());
    EXPECT_EQ(s.makespan, c.makespan);
}

TEST(WarmStart, ModuloZeroDeadlineDeliversKernels) {
    for (const char* name : {"matmul", "qrd", "arf", "detect"}) {
        const ir::Graph g = kernel_by_name(name);
        pipeline::ModuloOptions opts;
        opts.timeout_ms = 0;
        const pipeline::ModuloResult r = pipeline::modulo_schedule(g, opts);
        ASSERT_TRUE(r.feasible()) << name;
        EXPECT_GE(r.initial_ii, r.ii_lower_bound) << name;
    }
}

TEST(WarmStart, ModuloWarmAgreesWithCold) {
    for (const char* name : {"matmul", "qrd"}) {
        const ir::Graph g = kernel_by_name(name);
        pipeline::ModuloOptions warm;
        warm.timeout_ms = 60000;
        const pipeline::ModuloResult w = pipeline::modulo_schedule(g, warm);
        pipeline::ModuloOptions cold = warm;
        cold.warm_start = false;
        const pipeline::ModuloResult c = pipeline::modulo_schedule(g, cold);
        ASSERT_TRUE(w.feasible()) << name;
        ASSERT_TRUE(c.feasible()) << name;
        EXPECT_EQ(w.initial_ii, c.initial_ii) << name;
    }
}

}  // namespace
}  // namespace revec::sched
