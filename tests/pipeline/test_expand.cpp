#include "revec/pipeline/expand.hpp"

#include <gtest/gtest.h>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/dsl/eval.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/ir/validate.hpp"
#include "revec/pipeline/manual.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"
#include "revec/support/assert.hpp"

namespace revec::pipeline {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

TEST(ReplicateGraph, StructureAndValues) {
    const ir::Graph g = apps::build_matmul();
    const ir::Graph r3 = replicate_graph(g, 3);
    EXPECT_EQ(r3.num_nodes(), 3 * g.num_nodes());
    EXPECT_EQ(r3.num_edges(), 3 * g.num_edges());
    EXPECT_TRUE(ir::check_graph(r3).empty());
    // Each copy evaluates; values differ across iterations (scaled inputs).
    const auto vals = dsl::evaluate(r3);
    const auto outs = r3.output_nodes();
    ASSERT_EQ(outs.size(), 3u * g.output_nodes().size());
    const ir::Value& first = vals[static_cast<std::size_t>(outs.front())];
    const ir::Value& later = vals[static_cast<std::size_t>(outs.back())];
    EXPECT_NE(first.elems[0], later.elems[0]);
}

TEST(ExpandUniform, BackToBackIterationsVerify) {
    // Three QRD iterations spaced a full makespan apart, slots strided:
    // the paper's "repeat the allocation with an offset".
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    sched::ScheduleOptions opts;
    opts.timeout_ms = 30000;
    const sched::Schedule s = sched::schedule_kernel(g, opts);
    ASSERT_TRUE(s.feasible());

    const int stride = 1 + *std::max_element(s.slot.begin(), s.slot.end());
    const ExpandedProgram ep =
        expand_uniform(kSpec, g, s, 3, s.makespan + 2, stride);
    EXPECT_EQ(ep.iterations, 3);
    const auto problems = sched::verify_schedule(kSpec, ep.graph, ep.schedule);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(ExpandUniform, ExpandedProgramSimulates) {
    // Full loop: 3 iterations of QRD through codegen + simulation, outputs
    // of every iteration checked against the reference.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    sched::ScheduleOptions opts;
    opts.timeout_ms = 30000;
    const sched::Schedule s = sched::schedule_kernel(g, opts);
    ASSERT_TRUE(s.feasible());
    const int stride = 1 + *std::max_element(s.slot.begin(), s.slot.end());
    const ExpandedProgram ep = expand_uniform(kSpec, g, s, 3, s.makespan + 2, stride);

    const codegen::MachineProgram prog = codegen::generate_code(kSpec, ep.graph, ep.schedule);
    const sim::SimResult run = sim::simulate(kSpec, ep.graph, prog);
    EXPECT_TRUE(run.outputs_match) << "max err " << run.max_output_error;
    EXPECT_TRUE(run.violations.empty()) << run.violations.front();
}

TEST(ExpandUniform, SlotOverflowRejected) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    sched::ScheduleOptions opts;
    opts.timeout_ms = 30000;
    const sched::Schedule s = sched::schedule_kernel(g, opts);
    ASSERT_TRUE(s.feasible());
    // 12 iterations x stride 8 = 96 slots > 64: must refuse, as the paper's
    // "assumption that there is enough memory" breaks.
    const int stride = 1 + *std::max_element(s.slot.begin(), s.slot.end());
    EXPECT_THROW(expand_uniform(kSpec, g, s, 12, s.makespan + 2, stride), Error);
}

TEST(ExpandUniform, DroppingAllocationSkipsSlots) {
    const ir::Graph g = apps::build_matmul();
    const sched::Schedule s = sched::schedule_kernel(g);
    const ExpandedProgram ep = expand_uniform(kSpec, g, s, 2, s.makespan + 2, -1);
    for (const int slot : ep.schedule.slot) EXPECT_EQ(slot, -1);
    model::LowerOptions vo;
    vo.memory_allocation = false;
    EXPECT_TRUE(sched::verify_schedule(kSpec, ep.graph, ep.schedule, vo).empty());
}

TEST(ExpandOverlap, UnrolledOverlapVerifies) {
    // The §4.3 two-phase scheme, unrolled and checked by the independent
    // verifier (resources + the one-configuration-per-cycle rule).
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    const IterationSequence seq = pack_min_instructions(kSpec, g);
    for (const int m : {1, 4, 12}) {
        const OverlapResult overlap = overlapped_execution(kSpec, g, seq, m);
        const ExpandedProgram ep = expand_overlap(kSpec, g, seq, overlap);
        model::LowerOptions vo;
        vo.memory_allocation = false;
        const auto problems = sched::verify_schedule(kSpec, ep.graph, ep.schedule, vo);
        EXPECT_TRUE(problems.empty()) << "M=" << m << ": " << problems.front();
        EXPECT_EQ(ep.schedule.makespan, overlap.schedule_length - 0)
            << "analytic length must match the unrolled makespan (M=" << m << ")";
    }
}

TEST(ExpandModulo, UnrolledKernelVerifies) {
    // DESIGN.md invariant: the unrolled modulo expansion passes the
    // single-schedule verifier for several iteration counts.
    for (const ir::Graph& g :
         {apps::build_matmul(), ir::merge_pipeline_ops(apps::build_arf()),
          ir::merge_pipeline_ops(apps::build_qrd())}) {
        ModuloOptions opts;
        opts.timeout_ms = 30000;
        const ModuloResult r = modulo_schedule(g, opts);
        ASSERT_TRUE(r.feasible());
        for (const int m : {1, 3, 6}) {
            const ExpandedProgram ep = expand_modulo(kSpec, g, r, m);
            model::LowerOptions vo;
            vo.memory_allocation = false;
            const auto problems = sched::verify_schedule(kSpec, ep.graph, ep.schedule, vo);
            EXPECT_TRUE(problems.empty())
                << g.name() << " M=" << m << ": " << problems.front();
        }
    }
}

TEST(ExpandModulo, SteadyStateRateIsII) {
    // Completion times of successive iterations' last outputs differ by
    // exactly II once the pipeline is full.
    const ir::Graph g = apps::build_matmul();
    const ModuloResult r = modulo_schedule(g);
    ASSERT_TRUE(r.feasible());
    const ExpandedProgram ep = expand_modulo(kSpec, g, r, 4);
    std::vector<int> finish(4, 0);
    for (int m = 0; m < 4; ++m) {
        for (const ir::Node& n : g.nodes()) {
            const int id = ep.node_of(m, n.id);
            finish[static_cast<std::size_t>(m)] = std::max(
                finish[static_cast<std::size_t>(m)],
                ep.schedule.start[static_cast<std::size_t>(id)]);
        }
    }
    for (int m = 1; m < 4; ++m) {
        EXPECT_EQ(finish[static_cast<std::size_t>(m)] - finish[static_cast<std::size_t>(m - 1)],
                  r.initial_ii);
    }
}

TEST(ExpandModulo, InfeasibleInputRejected) {
    ModuloResult bad;
    bad.status = cp::SolveStatus::Unsat;
    EXPECT_THROW(expand_modulo(kSpec, apps::build_matmul(), bad, 2), Error);
}

}  // namespace
}  // namespace revec::pipeline
