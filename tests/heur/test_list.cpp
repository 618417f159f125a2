// Priority list scheduler: every schedule it emits must satisfy the
// timing/resource constraints of the model (checked through the independent
// verifier with memory checks off) on real and random kernels, in every
// rung of the allocation retry ladder.
#include "revec/heur/list.hpp"

#include <gtest/gtest.h>

#include <map>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/schedule.hpp"
#include "revec/sched/verify.hpp"

namespace revec::heur {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

std::vector<ir::Graph> app_kernels() {
    std::vector<ir::Graph> out;
    out.push_back(ir::merge_pipeline_ops(apps::build_matmul()));
    out.push_back(ir::merge_pipeline_ops(apps::build_qrd()));
    out.push_back(ir::merge_pipeline_ops(apps::build_arf()));
    out.push_back(ir::merge_pipeline_ops(apps::build_detect()));
    return out;
}

void expect_timing_valid(const ir::Graph& g, const ListResult& r) {
    sched::Schedule s;
    s.start = r.start;
    s.slot.assign(static_cast<std::size_t>(g.num_nodes()), -1);
    s.makespan = r.makespan;
    s.status = cp::SolveStatus::HeuristicFallback;
    model::LowerOptions vo;
    vo.memory_allocation = false;
    const auto problems = sched::verify_schedule(kSpec, g, s, vo);
    ASSERT_TRUE(problems.empty()) << g.name() << ": " << problems.front();
}

TEST(ListScheduler, AppKernelsVerifyClean) {
    for (const ir::Graph& g : app_kernels()) {
        const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g));
        EXPECT_GE(r.makespan, ir::critical_path_length(kSpec, g)) << g.name();
        expect_timing_valid(g, r);
    }
}

TEST(ListScheduler, LadderRungsVerifyClean) {
    for (const ir::Graph& g : app_kernels()) {
        for (const ListOptions& rung : {ListOptions{true, true, false, {}},
                                        ListOptions{true, true, true, {}}}) {
            const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g), rung);
            expect_timing_valid(g, r);
        }
    }
}

TEST(ListScheduler, SerializedIssueHasUniqueVectorCycles) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    ListOptions rung;
    rung.serialize_vector_issue = true;
    const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g), rung);
    std::map<int, int> issues;
    for (const ir::Node& node : g.nodes()) {
        if (node.is_op() && ir::node_timing(kSpec, node).lanes > 0) {
            ++issues[r.start[static_cast<std::size_t>(node.id)]];
        }
    }
    for (const auto& [cycle, count] : issues) EXPECT_EQ(count, 1) << "cycle " << cycle;
}

TEST(ListScheduler, SpreadWritesSeparatesWriters) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    ListOptions rung;
    rung.serialize_vector_issue = true;
    rung.spread_writes = true;
    const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g), rung);
    expect_timing_valid(g, r);
    // At most one *writer* lands per cycle (a multi-output op's writes
    // still land together).
    std::map<int, int> writers;
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op()) continue;
        bool writes = false;
        for (const int succ : g.succs(node.id)) {
            if (g.node(succ).cat == ir::NodeCat::VectorData) writes = true;
        }
        if (writes) {
            ++writers[r.start[static_cast<std::size_t>(node.id)] +
                      ir::node_timing(kSpec, node).latency];
        }
    }
    for (const auto& [cycle, count] : writers) EXPECT_EQ(count, 1) << "cycle " << cycle;
}

TEST(ListScheduler, RandomKernelsVerifyClean) {
    for (unsigned seed = 1; seed <= 12; ++seed) {
        apps::RandomKernelOptions opts;
        opts.seed = seed;
        const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(opts));
        for (const ListOptions& rung :
             {ListOptions{}, ListOptions{true, true, false, {}},
              ListOptions{true, true, true, {}}}) {
            const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g), rung);
            expect_timing_valid(g, r);
        }
    }
}

TEST(ListScheduler, DataNodesFollowProducerLatency) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g));
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_data() || g.preds(node.id).empty()) continue;
        const int p = g.preds(node.id).front();
        EXPECT_EQ(r.start[static_cast<std::size_t>(node.id)],
                  r.start[static_cast<std::size_t>(p)] +
                      ir::node_timing(kSpec, g.node(p)).latency);
    }
}

// MATMUL's greedy makespan, and the rules the list scheduler applies within
// one cycle on hand-built graphs.

TEST(ListSchedule, ValidOnMatmul) {
    const ir::Graph g = apps::build_matmul();
    const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g));
    expect_timing_valid(g, r);
    // 16 dot products of one type: 4 per cycle, plus the 7-cycle latency and
    // the merges: lower bound is ceil(16/4) - 1 + 7 + 1 = 11, which the
    // greedy schedule meets.
    EXPECT_EQ(r.makespan, 11);
    EXPECT_LE(r.makespan, 2 * ir::critical_path_length(kSpec, g));
}

TEST(ListSchedule, ValidOnQrdAndArf) {
    for (const ir::Graph& g :
         {ir::merge_pipeline_ops(apps::build_qrd()), ir::merge_pipeline_ops(apps::build_arf())}) {
        const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g));
        expect_timing_valid(g, r);
        EXPECT_GE(r.makespan, ir::critical_path_length(kSpec, g)) << g.name();
    }
}

TEST(ListSchedule, SingleOpGraph) {
    ir::Graph g("one");
    const int a = g.add_data(ir::NodeCat::VectorData, "a");
    const int op = g.add_op(ir::NodeCat::VectorOp, "v_squsum");
    const int out = g.add_data(ir::NodeCat::ScalarData);
    g.add_edge(a, op);
    g.add_edge(op, out);
    const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g));
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
    const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g));
    EXPECT_NE(r.start[static_cast<std::size_t>(add)], r.start[static_cast<std::size_t>(mul)]);
}

TEST(ListSchedule, SameConfigSharesCycle) {
    // Four single-lane ops of one configuration fill the four lanes of one
    // cycle.
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
    const ListResult r = priority_list_schedule(model::lower_ir(kSpec, g));
    for (const int op : ops) EXPECT_EQ(r.start[static_cast<std::size_t>(op)], 0);
}

}  // namespace
}  // namespace revec::heur
