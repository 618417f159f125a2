#include "revec/sched/verify.hpp"

#include <gtest/gtest.h>

#include "revec/apps/matmul.hpp"
#include "revec/sched/model.hpp"

namespace revec::sched {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

Schedule valid_matmul_schedule(const ir::Graph& g) {
    const Schedule s = schedule_kernel(g);
    EXPECT_TRUE(s.feasible());
    return s;
}

TEST(Verify, AcceptsSolverOutput) {
    const ir::Graph g = apps::build_matmul();
    const Schedule s = valid_matmul_schedule(g);
    EXPECT_TRUE(verify_schedule(kSpec, g, s).empty());
}

TEST(Verify, DetectsPrecedenceViolation) {
    const ir::Graph g = apps::build_matmul();
    Schedule s = valid_matmul_schedule(g);
    // Move the first op to before its inputs are ready.
    const int op = g.op_nodes().front();
    s.start[static_cast<std::size_t>(g.succs(op)[0])] += 1;  // desync data start
    const auto problems = verify_schedule(kSpec, g, s);
    EXPECT_FALSE(problems.empty());
}

TEST(Verify, DetectsLaneOverload) {
    ir::Graph g("overload");
    std::vector<int> ops;
    for (int i = 0; i < 5; ++i) {
        const int a = g.add_data(ir::NodeCat::VectorData);
        const int op = g.add_op(ir::NodeCat::VectorOp, "v_squsum");
        const int o = g.add_data(ir::NodeCat::ScalarData);
        g.add_edge(a, op);
        g.add_edge(op, o);
        ops.push_back(op);
    }
    Schedule s;
    s.start.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    for (const int op : ops) {
        s.start[static_cast<std::size_t>(g.succs(op)[0])] = 7;
    }
    s.makespan = 7;
    model::LowerOptions vo;
    vo.memory_allocation = false;
    bool lane_problem = false;
    for (const auto& p : verify_schedule(kSpec, g, s, vo)) {
        lane_problem = lane_problem || p.find("lane overload") != std::string::npos;
    }
    EXPECT_TRUE(lane_problem);
}

TEST(Verify, DetectsConfigurationConflict) {
    ir::Graph g("conflict");
    const int a = g.add_data(ir::NodeCat::VectorData);
    const int b = g.add_data(ir::NodeCat::VectorData);
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
    Schedule s;
    s.start.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    s.start[static_cast<std::size_t>(o1)] = 7;
    s.start[static_cast<std::size_t>(o2)] = 7;
    s.makespan = 7;
    model::LowerOptions vo;
    vo.memory_allocation = false;
    bool config_problem = false;
    for (const auto& p : verify_schedule(kSpec, g, s, vo)) {
        config_problem = config_problem || p.find("configuration") != std::string::npos;
    }
    EXPECT_TRUE(config_problem);
}

TEST(Verify, DetectsSlotReuseWhileLive) {
    const ir::Graph g = apps::build_matmul();
    Schedule s = valid_matmul_schedule(g);
    // Force two input vectors (both live at cycle 0) into the same slot.
    const auto inputs = g.input_nodes();
    ASSERT_GE(inputs.size(), 2u);
    s.slot[static_cast<std::size_t>(inputs[1])] = s.slot[static_cast<std::size_t>(inputs[0])];
    bool reuse_problem = false;
    for (const auto& p : verify_schedule(kSpec, g, s)) {
        reuse_problem = reuse_problem || p.find("reused while live") != std::string::npos;
    }
    EXPECT_TRUE(reuse_problem);
}

TEST(Verify, DetectsPageLineViolation) {
    const ir::Graph g = apps::build_matmul();
    Schedule s = valid_matmul_schedule(g);
    // Two inputs of the same first op: same page, different lines.
    const int op = g.op_nodes().front();
    const auto& ins = g.preds(op);
    ASSERT_GE(ins.size(), 2u);
    const arch::MemoryGeometry geom = kSpec.memory;
    s.slot[static_cast<std::size_t>(ins[0])] = geom.slot_at(0, 0);  // page 0, line 0
    s.slot[static_cast<std::size_t>(ins[1])] = geom.slot_at(1, 1);  // page 0, line 1
    const auto problems = verify_schedule(kSpec, g, s);
    bool page_problem = false;
    for (const auto& p : problems) {
        page_problem = page_problem || p.find("page") != std::string::npos;
    }
    EXPECT_TRUE(page_problem);
}

TEST(Verify, DetectsBadMakespan) {
    const ir::Graph g = apps::build_matmul();
    Schedule s = valid_matmul_schedule(g);
    s.makespan += 5;
    bool found = false;
    for (const auto& p : verify_schedule(kSpec, g, s)) {
        found = found || p.find("makespan") != std::string::npos;
    }
    EXPECT_TRUE(found);
}

TEST(Verify, DetectsOutOfRangeSlot) {
    const ir::Graph g = apps::build_matmul();
    Schedule s = valid_matmul_schedule(g);
    s.slot[static_cast<std::size_t>(g.input_nodes()[0])] = 999;
    bool found = false;
    for (const auto& p : verify_schedule(kSpec, g, s)) {
        found = found || p.find("out of range") != std::string::npos;
    }
    EXPECT_TRUE(found);
}

TEST(Verify, WrongSizeVectorsRejected) {
    const ir::Graph g = apps::build_matmul();
    Schedule s;
    s.start = {0, 1};
    EXPECT_FALSE(verify_schedule(kSpec, g, s).empty());
}

}  // namespace
}  // namespace revec::sched
