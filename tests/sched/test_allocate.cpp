// Slot-only allocation (ScheduleOptions::fixed_starts) and the physical
// port-limit extension. The flagship integration: a modulo-scheduled QRD
// unrolled for three iterations, memory-allocated with the CP model, turned
// into machine code, and executed on the simulator with exact outputs.
#include <gtest/gtest.h>

#include "revec/apps/qrd.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/ir/passes.hpp"
#include "revec/pipeline/expand.hpp"
#include "revec/pipeline/manual.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"
#include "revec/support/assert.hpp"

namespace revec::sched {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

TEST(FixedStarts, SlotOnlySolvePreservesStarts) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    ScheduleOptions first;
    first.timeout_ms = 30000;
    const Schedule s = schedule_kernel(g, first);
    ASSERT_TRUE(s.feasible());

    ScheduleOptions pinned;
    pinned.timeout_ms = 30000;
    pinned.fixed_starts = s.start;
    const Schedule s2 = schedule_kernel(g, pinned);
    ASSERT_TRUE(s2.feasible());
    EXPECT_EQ(s2.start, s.start);
    EXPECT_TRUE(verify_schedule(kSpec, g, s2).empty());
}

TEST(FixedStarts, WrongSizeRejected) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    ScheduleOptions opts;
    opts.fixed_starts = {1, 2, 3};
    EXPECT_THROW(schedule_kernel(g, opts), revec::Error);
}

TEST(FixedStarts, InfeasibleStartsRejected) {
    // Starts violating precedence conflict with the model's propagation.
    dsl::Program p("bad");
    const auto a = p.in_vector(1, 2, 3, 4);
    const auto n = dsl::v_squsum(a);
    p.mark_output(n);
    const ir::Graph& g = p.ir();
    ScheduleOptions opts;
    // node 0 = input, node 1 = op, node 2 = result; result before op+latency.
    opts.fixed_starts = {0, 0, 3};
    EXPECT_THROW(schedule_kernel(g, opts), revec::Error);
}

TEST(ModuloWithMemory, QrdPipelineExecutesEndToEnd) {
    // 1. Modulo-schedule the kernel (reconfiguration-aware).
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    pipeline::ModuloOptions mopts;
    mopts.include_reconfigs = true;
    mopts.timeout_ms = 30000;
    const pipeline::ModuloResult mod = pipeline::modulo_schedule(g, mopts);
    ASSERT_TRUE(mod.feasible());

    // 2. Unroll three iterations into a flat program.
    const pipeline::ExpandedProgram ep = pipeline::expand_modulo(kSpec, g, mod, 3);

    // 3. Allocate memory for the unrolled program with the slot-only model.
    ScheduleOptions aopts;
    aopts.fixed_starts = ep.schedule.start;
    aopts.timeout_ms = 60000;
    const Schedule allocated = schedule_kernel(ep.graph, aopts);
    ASSERT_TRUE(allocated.feasible()) << "allocation infeasible";

    const auto problems = verify_schedule(kSpec, ep.graph, allocated);
    ASSERT_TRUE(problems.empty()) << problems.front();

    // 4. Machine code + simulation: every iteration's outputs must match
    //    the reference, overlapped in the steady-state pipeline.
    const codegen::MachineProgram prog =
        codegen::generate_code(kSpec, ep.graph, allocated);
    const sim::SimResult run = sim::simulate(kSpec, ep.graph, prog);
    EXPECT_TRUE(run.outputs_match) << "max err " << run.max_output_error;
    EXPECT_TRUE(run.violations.empty()) << run.violations.front();

    // Steady-state spacing: iterations issue II apart.
    EXPECT_LT(allocated.makespan, 3 * 142);  // far better than back-to-back
}

TEST(OverlapWithMemory, ManualOverlapAllocatedAndSimulated) {
    // Table 2's manual method, taken all the way to executed machine code:
    // pack, overlap 3 iterations, unroll, allocate slots with the slot-only
    // CP model, generate code, simulate.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    const pipeline::IterationSequence seq = pipeline::pack_min_instructions(kSpec, g);
    const pipeline::OverlapResult overlap = pipeline::overlapped_execution(kSpec, g, seq, 3);
    const pipeline::ExpandedProgram ep = pipeline::expand_overlap(kSpec, g, seq, overlap);

    ScheduleOptions aopts;
    aopts.fixed_starts = ep.schedule.start;
    aopts.timeout_ms = 60000;
    const Schedule allocated = schedule_kernel(ep.graph, aopts);
    ASSERT_TRUE(allocated.feasible());
    const auto problems = verify_schedule(kSpec, ep.graph, allocated);
    ASSERT_TRUE(problems.empty()) << problems.front();

    const codegen::MachineProgram prog = codegen::generate_code(kSpec, ep.graph, allocated);
    const sim::SimResult run = sim::simulate(kSpec, ep.graph, prog);
    EXPECT_TRUE(run.outputs_match) << "max err " << run.max_output_error;
    EXPECT_TRUE(run.violations.empty()) << run.violations.front();
    EXPECT_EQ(run.cycles, overlap.schedule_length);
}

TEST(PortLimits, CmacBurstSerializedByModel) {
    // Four independent v_cmac ops read 12 vectors if issued together —
    // over the 8-read budget, so the model must split them 2+2 (or spread
    // further); with limits disabled they share one cycle.
    dsl::Program p("cmac_burst");
    for (int i = 0; i < 4; ++i) {
        const auto a = p.in_vector(i, 1, 1, 1);
        const auto b = p.in_vector(1, i, 1, 1);
        const auto c = p.in_vector(1, 1, i, 1);
        p.mark_output(dsl::v_cmac(a, b, c));
    }
    const ir::Graph& g = p.ir();

    ScheduleOptions with;
    with.timeout_ms = 15000;
    const Schedule s_with = schedule_kernel(g, with);
    ASSERT_TRUE(s_with.feasible());
    EXPECT_GE(s_with.makespan, 8);  // at least two issue cycles
    EXPECT_TRUE(verify_schedule(kSpec, g, s_with).empty());

    ScheduleOptions without;
    without.timeout_ms = 15000;
    without.enforce_port_limits = false;
    const Schedule s_without = schedule_kernel(g, without);
    ASSERT_TRUE(s_without.feasible());
    EXPECT_EQ(s_without.makespan, 7);  // all four in cycle 0
    // The verifier (with port checks on) must flag that schedule.
    const auto problems = verify_schedule(kSpec, g, s_without);
    bool port_problem = false;
    for (const auto& msg : problems) {
        port_problem = port_problem || msg.find("read-port") != std::string::npos;
    }
    EXPECT_TRUE(port_problem);
}

TEST(PortLimits, WritePortsRespected) {
    // Two matrix hermitians write 8 vectors at completion; limits force
    // their write-backs apart.
    dsl::Program p("herm_burst");
    for (int k = 0; k < 2; ++k) {
        const auto m = p.in_matrix({dsl::Vector::Elems{1. + k, 2, 3, 4},
                                    dsl::Vector::Elems{5, 6, 7, 8},
                                    dsl::Vector::Elems{9, 10, 11, 12},
                                    dsl::Vector::Elems{13, 14, 15, 16}},
                                   "m" + std::to_string(k));
        p.mark_output(dsl::m_hermitian(m));
    }
    const ir::Graph& g = p.ir();
    ScheduleOptions opts;
    opts.timeout_ms = 15000;
    const Schedule s = schedule_kernel(g, opts);
    ASSERT_TRUE(s.feasible());
    EXPECT_TRUE(verify_schedule(kSpec, g, s).empty());
    // Each hermitian writes 4 vectors (the whole write budget): the two ops
    // cannot complete in the same cycle. Lane exclusion already forces
    // different issue cycles; port limits keep it that way under any model.
    const auto ops = g.nodes_of(ir::NodeCat::MatrixOp);
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_NE(s.start[static_cast<std::size_t>(ops[0])],
              s.start[static_cast<std::size_t>(ops[1])]);
}

}  // namespace
}  // namespace revec::sched
