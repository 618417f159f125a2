#include <gtest/gtest.h>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/schedule.hpp"
#include "revec/sched/verify.hpp"

namespace revec::sched {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

// Reuse the independent verifier with memory checks off.
void expect_valid(const ir::Graph& g, const ListScheduleResult& r) {
    Schedule sched;
    sched.start = r.start;
    sched.makespan = r.makespan;
    sched.status = cp::SolveStatus::Optimal;
    model::LowerOptions opts;
    opts.memory_allocation = false;
    const auto problems = verify_schedule(kSpec, g, sched, opts);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(ListSchedule, ValidOnMatmul) {
    const ir::Graph g = apps::build_matmul();
    const ListScheduleResult r = list_schedule(kSpec, g);
    expect_valid(g, r);
    // 16 dot products of one type: 4 per cycle, plus the 7-cycle latency and
    // the merges: lower bound is ceil(16/4) - 1 + 7 + 1 = 11.
    EXPECT_GE(r.makespan, 11);
    EXPECT_LE(r.makespan, 2 * ir::critical_path_length(kSpec, g));
}

TEST(ListSchedule, ValidOnQrdAndArf) {
    for (const ir::Graph& g :
         {ir::merge_pipeline_ops(apps::build_qrd()), ir::merge_pipeline_ops(apps::build_arf())}) {
        const ListScheduleResult r = list_schedule(kSpec, g);
        expect_valid(g, r);
        EXPECT_GE(r.makespan, ir::critical_path_length(kSpec, g));
    }
}

TEST(ListSchedule, SingleOpGraph) {
    ir::Graph g("one");
    const int a = g.add_data(ir::NodeCat::VectorData, "a");
    const int op = g.add_op(ir::NodeCat::VectorOp, "v_squsum");
    const int out = g.add_data(ir::NodeCat::ScalarData);
    g.add_edge(a, op);
    g.add_edge(op, out);
    const ListScheduleResult r = list_schedule(kSpec, g);
    EXPECT_EQ(r.start[static_cast<std::size_t>(op)], 0);
    EXPECT_EQ(r.makespan, 7);
}

TEST(ListSchedule, DifferentConfigsSerialize) {
    // Two independent vector ops of different types cannot share a cycle.
    ir::Graph g("two");
    const int a = g.add_data(ir::NodeCat::VectorData, "a");
    const int b = g.add_data(ir::NodeCat::VectorData, "b");
    const int add = g.add_op(ir::NodeCat::VectorOp, "v_add");
    const int mul = g.add_op(ir::NodeCat::VectorOp, "v_mul");
    const int o1 = g.add_data(ir::NodeCat::VectorData);
    const int o2 = g.add_data(ir::NodeCat::VectorData);
    g.add_edge(a, add);
    g.add_edge(b, add);
    g.add_edge(a, mul);
    g.add_edge(b, mul);
    g.add_edge(add, o1);
    g.add_edge(mul, o2);
    const ListScheduleResult r = list_schedule(kSpec, g);
    EXPECT_NE(r.start[static_cast<std::size_t>(add)], r.start[static_cast<std::size_t>(mul)]);
}

TEST(ListSchedule, SameConfigSharesCycle) {
    ir::Graph g("four");
    std::vector<int> ops;
    for (int i = 0; i < 4; ++i) {
        const int a = g.add_data(ir::NodeCat::VectorData);
        const int b = g.add_data(ir::NodeCat::VectorData);
        const int op = g.add_op(ir::NodeCat::VectorOp, "v_add");
        const int o = g.add_data(ir::NodeCat::VectorData);
        g.add_edge(a, op);
        g.add_edge(b, op);
        g.add_edge(op, o);
        ops.push_back(op);
    }
    const ListScheduleResult r = list_schedule(kSpec, g);
    for (const int op : ops) EXPECT_EQ(r.start[static_cast<std::size_t>(op)], 0);
}

}  // namespace
}  // namespace revec::sched
