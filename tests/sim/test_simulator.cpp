#include "revec/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"

namespace revec::sim {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

SimResult run_end_to_end(const ir::Graph& g, std::int64_t timeout_ms = 30000) {
    sched::ScheduleOptions opts;
    opts.timeout_ms = timeout_ms;
    const sched::Schedule s = sched::schedule_kernel(g, opts);
    EXPECT_TRUE(s.feasible());
    const codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
    return simulate(kSpec, g, prog);
}

TEST(Simulator, MatmulEndToEnd) {
    const SimResult r = run_end_to_end(apps::build_matmul());
    EXPECT_TRUE(r.outputs_match) << "max err " << r.max_output_error;
    EXPECT_TRUE(r.violations.empty()) << r.violations.front();
    EXPECT_EQ(r.reconfigurations, 1);  // one configuration, loaded once
    EXPECT_GT(r.cycles, 0);
}

TEST(Simulator, QrdEndToEnd) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    const SimResult r = run_end_to_end(g);
    EXPECT_TRUE(r.outputs_match) << "max err " << r.max_output_error;
    EXPECT_TRUE(r.violations.empty()) << r.violations.front();
    EXPECT_GT(r.reconfigurations, 1);
}

TEST(Simulator, ArfEndToEnd) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_arf());
    const SimResult r = run_end_to_end(g);
    EXPECT_TRUE(r.outputs_match) << "max err " << r.max_output_error;
    EXPECT_TRUE(r.violations.empty()) << r.violations.front();
}

TEST(Simulator, CyclesMatchScheduleMakespan) {
    const ir::Graph g = apps::build_matmul();
    const sched::Schedule s = sched::schedule_kernel(g);
    const codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
    const SimResult r = simulate(kSpec, g, prog);
    EXPECT_EQ(r.cycles, s.makespan);
}

TEST(Simulator, MatrixOpsExecute) {
    dsl::Program p("matrix_sim");
    const auto m = p.in_matrix({dsl::Vector::Elems{1, 2, 3, 4}, dsl::Vector::Elems{5, 6, 7, 8},
                                dsl::Vector::Elems{9, 10, 11, 12},
                                dsl::Vector::Elems{13, 14, 15, 16}},
                               "m");
    const auto h = dsl::m_hermitian(m);
    const auto sums = dsl::m_squsum(h);
    p.mark_output(sums);
    const SimResult r = run_end_to_end(p.ir());
    EXPECT_TRUE(r.outputs_match);
    EXPECT_TRUE(r.violations.empty());
}

TEST(Simulator, FusedOpsExecute) {
    dsl::Program p("fused_sim");
    const auto a = p.in_vector({ir::Complex(1, 1), ir::Complex(2, -3), ir::Complex(0, 2),
                                ir::Complex(-1, 0)},
                               "a");
    const auto b = p.in_vector(2, 2, 2, 2, "b");
    const auto cb = dsl::pre_conj(a);
    const auto prod = dsl::v_mul(cb, b);
    const auto sorted = dsl::post_sort(prod);
    p.mark_output(sorted);
    const ir::Graph merged = ir::merge_pipeline_ops(p.ir());
    const SimResult r = run_end_to_end(merged);
    EXPECT_TRUE(r.outputs_match);
}

TEST(Simulator, CorruptedSlotAssignmentDetected) {
    // Force two values into one slot: the run must throw (premature reuse)
    // or produce mismatched outputs — it must not silently pass.
    const ir::Graph g = apps::build_matmul();
    const sched::Schedule s = sched::schedule_kernel(g);
    codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
    const auto inputs = g.input_nodes();
    ASSERT_GE(inputs.size(), 2u);
    // Redirect input 1's slot to input 0's slot everywhere.
    const int from = prog.slot_of_data[static_cast<std::size_t>(inputs[1])];
    const int to = prog.slot_of_data[static_cast<std::size_t>(inputs[0])];
    prog.slot_of_data[static_cast<std::size_t>(inputs[1])] = to;
    for (codegen::MachineInstr& instr : prog.instrs) {
        for (auto* group : {&instr.vector_ops, &instr.scalar_ops, &instr.ix_ops}) {
            for (codegen::OpIssue& op : *group) {
                for (int& slot : op.src_slots) {
                    if (slot == from) slot = to;
                }
            }
        }
    }
    bool detected = false;
    try {
        const SimResult r = simulate(kSpec, g, prog);
        detected = !r.outputs_match;
    } catch (const revec::Error&) {
        detected = true;
    }
    EXPECT_TRUE(detected);
}

// Random kernel 774543256 (20 ops) reuses slot 6 across a long and a short
// latency write: a v_sub issued at cycle 3 lands datum 46 there at cycle
// 10, a merge issued at 8 lands datum 28 there at 9, and no instruction
// issues in between. Both writes commit in one group, which must apply
// them in landing order (28, then 46), not issue order.
ir::Graph landing_order_kernel() {
    apps::RandomKernelOptions o;
    o.seed = 774543256u;
    o.num_ops = 20;
    o.use_matrix = false;
    return ir::merge_pipeline_ops(apps::build_random_kernel(o));
}

TEST(Simulator, CommitsWritesInLandingOrder) {
    const ir::Graph g = landing_order_kernel();
    for (const bool heuristic_only : {true, false}) {
        SCOPED_TRACE(heuristic_only ? "heuristic" : "exact");
        sched::ScheduleOptions opts;
        opts.heuristic_only = heuristic_only;
        opts.timeout_ms = 30000;
        const sched::Schedule s = sched::schedule_kernel(g, opts);
        ASSERT_TRUE(s.feasible());
        const codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
        const SimResult r = simulate(kSpec, g, prog);
        EXPECT_TRUE(r.outputs_match) << "max err " << r.max_output_error;
        EXPECT_TRUE(r.violations.empty()) << r.violations.front();
    }
}

TEST(Simulator, RejectsSlotReuseWhileLive) {
    // Mutation check for the landing-order commit: move a datum e into the
    // slot of a datum d that is still to be read — e lands after d and
    // before d's last reader issues. The checker rejects that placement, and
    // the simulator must too: d's last read finds e in the slot.
    const ir::Graph g = landing_order_kernel();
    sched::ScheduleOptions opts;
    opts.heuristic_only = true;
    const model::KernelModel km = sched::lower_for_schedule(g, opts);
    const sched::Schedule s = sched::schedule_kernel(g, opts);
    ASSERT_TRUE(s.feasible());
    ASSERT_TRUE(model::check_schedule(km, s.start, s.slot, s.makespan).empty());
    const auto at = [&s](int node) { return s.start[static_cast<std::size_t>(node)]; };
    int mutated = 0;
    for (const int d : km.vdata) {
        int last_read = -1;
        for (const int succ : km.node(d).succs) last_read = std::max(last_read, at(succ));
        for (const int e : km.vdata) {
            if (e == d || at(e) <= at(d) || at(e) >= last_read) continue;
            sched::Schedule bad = s;
            bad.slot[static_cast<std::size_t>(e)] = s.slot[static_cast<std::size_t>(d)];
            const std::vector<std::string> problems =
                model::check_schedule(km, bad.start, bad.slot, bad.makespan);
            ASSERT_FALSE(problems.empty());
            SCOPED_TRACE(problems.front());
            bool detected = false;
            try {
                const SimResult r = simulate(kSpec, g, codegen::generate_code(kSpec, g, bad));
                detected = !r.outputs_match || !r.violations.empty();
            } catch (const revec::Error&) {
                detected = true;
            }
            EXPECT_TRUE(detected);
            ++mutated;
        }
    }
    EXPECT_GT(mutated, 0);
}

// Write-backs are rule-checked one landing cycle at a time. Two v_adds
// issue at cycle 0 and two v_subs at cycle 1; the v_subs' results land one
// cycle after the v_adds' in one bank. Only that later group is reported,
// with the checker's own reason.
TEST(Simulator, ChecksEveryWriteBackGroup) {
    dsl::Program p("write_backs");
    std::vector<dsl::Vector> in;
    for (int k = 0; k < 8; ++k) in.push_back(p.in_vector(k, k + 1, k + 2, k + 3));
    const std::vector<dsl::Vector> out = {dsl::v_add(in[0], in[1]), dsl::v_add(in[2], in[3]),
                                          dsl::v_sub(in[4], in[5]), dsl::v_sub(in[6], in[7])};
    for (const dsl::Vector& v : out) p.mark_output(v);
    const ir::Graph& g = p.ir();

    codegen::MachineProgram prog;
    prog.slot_of_data.assign(static_cast<std::size_t>(g.num_nodes()), -1);
    for (int k = 0; k < 8; ++k) prog.slot_of_data[static_cast<std::size_t>(in[static_cast<std::size_t>(k)].node())] = k;
    const int dst[] = {16, 17, 8, 24};  // the v_subs' results share bank 8
    int latest = 0;
    for (int k = 0; k < 4; ++k) {
        const int d = out[static_cast<std::size_t>(k)].node();
        prog.slot_of_data[static_cast<std::size_t>(d)] = dst[k];
        const int op = g.preds(d).front();
        codegen::OpIssue issue;
        issue.op_node = op;
        issue.src_slots = {2 * k, 2 * k + 1};
        issue.dst_slot = dst[k];
        if (k % 2 == 0) prog.instrs.push_back({k / 2, g.node(op).op, {}, {}, {}});
        prog.instrs.back().vector_ops.push_back(issue);
        latest = k / 2 + ir::node_timing(kSpec, g.node(op)).latency;
    }
    const SimResult r = simulate(kSpec, g, prog);
    EXPECT_TRUE(r.outputs_match);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations.front(), "write-back at cycle " + std::to_string(latest) +
                                        ": two writes hit bank 8 in the same cycle (slot 24)");
}

TEST(Simulator, StrictModeMayFindCrossTrafficConflicts) {
    // Strict mode checks more than the paper's model; it must never find
    // *fewer* problems than model mode.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    sched::ScheduleOptions opts;
    opts.timeout_ms = 30000;
    const sched::Schedule s = sched::schedule_kernel(g, opts);
    const codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
    const SimResult relaxed = simulate(kSpec, g, prog);
    SimOptions strict;
    strict.strict_memory_check = true;
    const SimResult hard = simulate(kSpec, g, prog, strict);
    EXPECT_GE(hard.violations.size(), relaxed.violations.size());
    EXPECT_TRUE(hard.outputs_match);  // values still correct either way
}

TEST(Simulator, TraceRecordsEveryIssue) {
    const ir::Graph g = apps::build_matmul();
    const sched::Schedule s = sched::schedule_kernel(g);
    const codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
    SimOptions opts;
    opts.record_trace = true;
    const SimResult r = simulate(kSpec, g, prog, opts);
    EXPECT_EQ(r.trace.size(), g.op_nodes().size());
    // First line issues at t=0 and names a dot product with two slots.
    ASSERT_FALSE(r.trace.empty());
    EXPECT_NE(r.trace.front().find("t=0: v_dotP"), std::string::npos);
    EXPECT_NE(r.trace.front().find("M["), std::string::npos);
    // Merges appear with a vector destination.
    bool merge_seen = false;
    for (const auto& line : r.trace) {
        merge_seen = merge_seen || line.find("merge") != std::string::npos;
    }
    EXPECT_TRUE(merge_seen);
    // Without the option, no trace accumulates.
    const SimResult quiet = simulate(kSpec, g, prog);
    EXPECT_TRUE(quiet.trace.empty());
}

TEST(Simulator, ScalarChain) {
    dsl::Program p("scalars");
    const auto a = p.in_scalar(ir::Complex(16, 0));
    const auto b = dsl::s_sqrt(a);
    const auto c = dsl::s_mul(b, b);
    const auto d = dsl::s_sub(c, a);
    p.mark_output(d);
    const SimResult r = run_end_to_end(p.ir());
    EXPECT_TRUE(r.outputs_match);
    EXPECT_EQ(r.reconfigurations, 0);  // no vector pipeline use at all
}

}  // namespace
}  // namespace revec::sim
