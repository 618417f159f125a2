#include "revec/sched/model.hpp"

#include <gtest/gtest.h>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/verify.hpp"
#include "revec/support/assert.hpp"

namespace revec::sched {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

void expect_verified(const ir::Graph& g, const Schedule& s,
                     const ScheduleOptions& opts = {}) {
    ASSERT_TRUE(s.feasible());
    const auto problems = verify_schedule(kSpec, g, s, opts);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(Model, SingleChainIsCriticalPath) {
    dsl::Program p("chain");
    const auto a = p.in_vector(1, 2, 3, 4);
    const auto n2 = dsl::v_squsum(a);
    const auto r = dsl::s_sqrt(n2);
    const auto q = dsl::v_scale(a, r);
    p.mark_output(q);
    const ir::Graph g = p.ir();

    const Schedule s = schedule_kernel(g);
    expect_verified(g, s);
    EXPECT_TRUE(s.proven_optimal());
    EXPECT_EQ(s.makespan, ir::critical_path_length(kSpec, g));
}

TEST(Model, FourIndependentSameTypeOpsShareOneCycle) {
    dsl::Program p("par");
    for (int i = 0; i < 4; ++i) {
        const auto a = p.in_vector(i, i, i, i);
        const auto b = p.in_vector(1, 1, 1, 1);
        p.mark_output(dsl::v_add(a, b));
    }
    const ir::Graph g = p.ir();
    const Schedule s = schedule_kernel(g);
    expect_verified(g, s);
    EXPECT_EQ(s.makespan, 7);  // all four in cycle 0
}

TEST(Model, FiveSameTypeOpsNeedTwoCycles) {
    dsl::Program p("five");
    for (int i = 0; i < 5; ++i) {
        const auto a = p.in_vector(i, i, i, i);
        const auto b = p.in_vector(1, 1, 1, 1);
        p.mark_output(dsl::v_add(a, b));
    }
    const ir::Graph g = p.ir();
    const Schedule s = schedule_kernel(g);
    expect_verified(g, s);
    EXPECT_EQ(s.makespan, 8);
}

TEST(Model, DifferentTypesCannotShareCycle) {
    dsl::Program p("mixed");
    const auto a = p.in_vector(1, 2, 3, 4);
    const auto b = p.in_vector(4, 3, 2, 1);
    p.mark_output(dsl::v_add(a, b));
    p.mark_output(dsl::v_mul(a, b));
    const ir::Graph g = p.ir();
    const Schedule s = schedule_kernel(g);
    expect_verified(g, s);
    EXPECT_EQ(s.makespan, 8);  // one of the two must wait a cycle (eq. 3)
}

TEST(Model, MatrixOpExcludesVectorOps) {
    dsl::Program p("matrix");
    const auto m = p.in_matrix({dsl::Vector::Elems{1, 2, 3, 4}, dsl::Vector::Elems{5, 6, 7, 8},
                                dsl::Vector::Elems{9, 10, 11, 12},
                                dsl::Vector::Elems{13, 14, 15, 16}},
                               "m");
    p.mark_output(dsl::m_squsum(m));
    const auto a = p.in_vector(1, 1, 1, 1);
    p.mark_output(dsl::v_squsum(a));
    const ir::Graph g = p.ir();
    const Schedule s = schedule_kernel(g);
    expect_verified(g, s);
    EXPECT_EQ(s.makespan, 8);  // matrix op and vector op serialize
}

TEST(Model, MemoryDisabledSkipsSlots) {
    ScheduleOptions opts;
    opts.memory_allocation = false;
    const ir::Graph g = apps::build_matmul();
    const Schedule s = schedule_kernel(g, opts);
    ASSERT_TRUE(s.feasible());
    EXPECT_EQ(s.slots_used, 0);
    EXPECT_TRUE(verify_schedule(kSpec, g, s, opts).empty());
}

TEST(Model, MatmulOptimalScheduleAndMemory) {
    const ir::Graph g = apps::build_matmul();
    const Schedule s = schedule_kernel(g);
    expect_verified(g, s);
    EXPECT_TRUE(s.proven_optimal());
    // 16 dotP (same config, 4 lanes) -> 4 issue cycles; last at cycle 3
    // completes at 10; its merge needs all 4 scalars -> merges at 10..13,
    // done at 14... but merges can interleave: optimum is 11 when merges
    // chase the dot products. Accept the solver's proven optimum and sanity
    // bounds.
    EXPECT_GE(s.makespan, 11);
    EXPECT_LE(s.makespan, 15);
    EXPECT_GT(s.slots_used, 0);
}

TEST(Model, TooFewSlotsIsUnsat) {
    // MATMUL needs its 4 input vectors live simultaneously at cycle 0 plus
    // room for results: with 2 slots no allocation exists.
    ScheduleOptions opts;
    opts.num_slots = 2;
    const ir::Graph g = apps::build_matmul();
    const Schedule s = schedule_kernel(g, opts);
    EXPECT_EQ(s.status, cp::SolveStatus::Unsat);
    EXPECT_FALSE(s.feasible());
}

TEST(Model, MakespanInsensitiveToMemorySize) {
    // Table 1's shape: plenty of slots vs few slots gives the same length.
    const ir::Graph g = apps::build_matmul();
    ScheduleOptions big;
    big.num_slots = 64;
    ScheduleOptions small;
    small.num_slots = 10;
    const Schedule s1 = schedule_kernel(g, big);
    const Schedule s2 = schedule_kernel(g, small);
    ASSERT_TRUE(s1.feasible());
    ASSERT_TRUE(s2.feasible());
    EXPECT_EQ(s1.makespan, s2.makespan);
    EXPECT_LE(s2.slots_used, 10);
}

TEST(Model, TimeoutReturnsHeuristicFallback) {
    // With the warm start on (the default), a zero deadline still yields a
    // complete verify-clean schedule: the heuristic layer's anytime result
    // on a kernel whose heuristic makespan (27) misses the makespan lower
    // bound (24), so the exact search is needed and runs out of time.
    ScheduleOptions opts;
    opts.timeout_ms = 0;  // expire immediately
    apps::RandomKernelOptions kopts;
    kopts.seed = 15;
    kopts.num_ops = 20;
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));
    const Schedule s = schedule_kernel(g, opts);
    EXPECT_EQ(s.status, cp::SolveStatus::HeuristicFallback);
    ASSERT_TRUE(s.feasible());
    expect_verified(g, s, opts);
}

TEST(Model, TimeoutIsNotReadWhenTheHeuristicMeetsTheBound) {
    // MATMUL's heuristic makespan is its makespan lower bound (11): the
    // schedule is proven optimal before any deadline is consulted.
    ScheduleOptions opts;
    opts.timeout_ms = 0;
    const ir::Graph g = apps::build_matmul();
    const Schedule s = schedule_kernel(g, opts);
    EXPECT_EQ(s.status, cp::SolveStatus::Optimal);
    EXPECT_TRUE(s.bound_closed);
    EXPECT_EQ(s.makespan, 11);
    expect_verified(g, s, opts);
}

TEST(Model, TimeoutWithoutWarmStartReturnsBestEffort) {
    // The cold exact solver keeps the old contract: a zero deadline gives
    // Timeout (or SatTimeout if a solution appeared instantly).
    ScheduleOptions opts;
    opts.timeout_ms = 0;
    opts.warm_start = false;
    const ir::Graph g = apps::build_matmul();
    const Schedule s = schedule_kernel(g, opts);
    EXPECT_TRUE(s.status == cp::SolveStatus::Timeout ||
                s.status == cp::SolveStatus::SatTimeout);
}

TEST(Model, SinglePhaseAblationStillValid) {
    ScheduleOptions opts;
    opts.three_phase_search = false;
    opts.timeout_ms = 10000;
    const ir::Graph g = apps::build_matmul();
    const Schedule s = schedule_kernel(g, opts);
    if (s.feasible()) expect_verified(g, s, opts);
}

TEST(Model, LifetimePlusOneVariant) {
    ScheduleOptions opts;
    opts.lifetime_includes_last_read = true;
    const ir::Graph g = apps::build_matmul();
    const Schedule s = schedule_kernel(g, opts);
    expect_verified(g, s, opts);
}

TEST(Model, ArfSchedulesToVerifiedOptimum) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_arf());
    ScheduleOptions opts;
    opts.timeout_ms = 20000;
    const Schedule s = schedule_kernel(g, opts);
    expect_verified(g, s, opts);
    EXPECT_GE(s.makespan, ir::critical_path_length(kSpec, g));
}

TEST(Model, RejectsExcessSlots) {
    ScheduleOptions opts;
    opts.num_slots = 1000;  // > 64 slots of the EIT memory
    EXPECT_THROW(schedule_kernel(apps::build_matmul(), opts), revec::Error);
}

}  // namespace
}  // namespace revec::sched
