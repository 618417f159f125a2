// Structural fingerprint invariance (DESIGN §5k): equal under every
// timing/lifetime/bound perturbation, different under op/edge/geometry-
// class edits — plus ModelDelta units on hand-built edits of the Fig. 3
// MATMUL model, pinning exactly which typed fields each edit moves.
#include <gtest/gtest.h>

#include "revec/apps/matmul.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/fingerprint.hpp"
#include "revec/sched/model.hpp"

namespace revec::model {
namespace {

KernelModel matmul_model() {
    return sched::lower_for_schedule(ir::merge_pipeline_ops(apps::build_matmul()),
                                     sched::ScheduleOptions{});
}

/// Change a node's latency; derive() carries it to the edges, ASAP/ALAP
/// and the critical path.
void set_latency(KernelModel& m, int id, int latency) {
    m.nodes[static_cast<std::size_t>(id)].latency = latency;
    derive(m);
}

int first_op(const KernelModel& m) { return m.ops.front(); }

TEST(Fingerprint, InvariantUnderTimingAndBoundPerturbations) {
    const KernelModel base = matmul_model();
    const std::uint64_t fp = structural_fingerprint(base);

    // Latency edit on every op, one at a time.
    for (const int op : base.ops) {
        KernelModel m = base;
        set_latency(m, op, m.node(op).latency + 3);
        EXPECT_EQ(structural_fingerprint(m), fp) << "latency edit on node " << op;
    }

    // Duration, lifetime, horizon, critical path, ASAP/ALAP shifts.
    KernelModel m = base;
    m.nodes[static_cast<std::size_t>(first_op(m))].duration += 2;
    EXPECT_EQ(structural_fingerprint(m), fp);

    m = base;
    for (ModelNode& n : m.nodes) n.lifetime_extra += 1;
    EXPECT_EQ(structural_fingerprint(m), fp);

    m = base;
    m.horizon += 100;
    m.critical_path += 5;
    for (int& v : m.asap) v += 1;
    for (int& v : m.alap) v += 7;
    EXPECT_EQ(structural_fingerprint(m), fp);

    // Geometry *knobs* are delta-tracked, not fingerprinted: a knob-edited
    // variant must land in the same tier-2 bucket.
    m = base;
    m.num_slots -= 1;
    m.caps.vector_lanes *= 2;
    m.geometry.lines += 8;
    EXPECT_EQ(structural_fingerprint(m), fp);
}

TEST(Fingerprint, ChangesUnderStructuralEdits) {
    const KernelModel base = matmul_model();
    const std::uint64_t fp = structural_fingerprint(base);

    KernelModel m = base;
    m.nodes[static_cast<std::size_t>(first_op(m))].op += "_edited";
    EXPECT_NE(structural_fingerprint(m), fp);

    m = base;
    m.nodes[static_cast<std::size_t>(first_op(m))].lanes += 1;
    EXPECT_NE(structural_fingerprint(m), fp);

    // Edge edit: topology is part of the structure.
    m = base;
    ASSERT_GE(m.edges.size(), 2u);
    m.edges.push_back(ModelEdge{m.edges[0].src, m.edges[1].dst, 0,
                                EdgeKind::Precedence});
    EXPECT_NE(structural_fingerprint(m), fp);

    m = base;
    m.edges.pop_back();
    EXPECT_NE(structural_fingerprint(m), fp);

    // Geometry *class* flip: a memory-free model must never bucket with a
    // memory-allocating one.
    m = base;
    m.memory_allocation = false;
    EXPECT_NE(structural_fingerprint(m), fp);
}

TEST(Fingerprint, EdgeLatencyIsNotTopology) {
    // An edge's latency mirrors its source node's latency — a timing edit,
    // not a rewire. Only (src, dst, kind) are hashed.
    KernelModel m = matmul_model();
    const std::uint64_t fp = structural_fingerprint(m);
    for (ModelEdge& e : m.edges) e.latency += 1;
    EXPECT_EQ(structural_fingerprint(m), fp);
}

TEST(ModelDelta, IdenticalModelsDiffEmpty) {
    const KernelModel a = matmul_model();
    const ModelDelta d = diff(a, a);
    EXPECT_TRUE(d.comparable);
    EXPECT_TRUE(d.compatible());
    EXPECT_EQ(d.distance(), 0);
    EXPECT_TRUE(d.edited_nodes.empty());
    EXPECT_TRUE(d.added_nodes.empty());
    EXPECT_TRUE(d.removed_nodes.empty());
    EXPECT_EQ(d.edges_added + d.edges_removed, 0);
    EXPECT_FALSE(d.geometry_changed);
    EXPECT_FALSE(d.semantics_changed);
    EXPECT_FALSE(d.bounds_tightened);
    EXPECT_FALSE(d.bounds_loosened);
}

TEST(ModelDelta, LatencyEditIsOneEditedNode) {
    const KernelModel a = matmul_model();
    KernelModel b = a;
    const int op = first_op(b);
    set_latency(b, op, b.node(op).latency + 1);

    const ModelDelta d = diff(a, b);
    EXPECT_TRUE(d.comparable);
    EXPECT_TRUE(d.compatible());
    ASSERT_EQ(d.edited_nodes.size(), 1u);
    EXPECT_EQ(d.edited_nodes.front(), op);
    EXPECT_EQ(d.distance(), 4);  // one edited node, nothing else
    // And the direction matters not: diff(b, a) sees the same edit.
    EXPECT_EQ(diff(b, a).edited_nodes, d.edited_nodes);
}

TEST(ModelDelta, AppendedNodeIsAnAddition) {
    const KernelModel a = matmul_model();
    KernelModel b = a;
    ModelNode extra;
    extra.id = b.num_nodes();
    extra.is_op = true;
    extra.op = "vmul";
    extra.latency = 4;
    b.nodes.push_back(extra);

    const ModelDelta ab = diff(a, b);
    EXPECT_TRUE(ab.comparable);
    ASSERT_EQ(ab.added_nodes.size(), 1u);
    EXPECT_EQ(ab.added_nodes.front(), a.num_nodes());
    EXPECT_TRUE(ab.removed_nodes.empty());

    const ModelDelta ba = diff(b, a);
    ASSERT_EQ(ba.removed_nodes.size(), 1u);
    EXPECT_TRUE(ba.added_nodes.empty());
}

TEST(ModelDelta, EdgeChurnAndBoundsAreTyped) {
    const KernelModel a = matmul_model();
    KernelModel b = a;
    b.edges.push_back(ModelEdge{b.edges[0].src, b.edges[1].dst, 0,
                                EdgeKind::Precedence});
    b.horizon += 10;

    const ModelDelta d = diff(a, b);
    EXPECT_EQ(d.edges_added, 1);
    EXPECT_EQ(d.edges_removed, 0);
    EXPECT_TRUE(d.bounds_loosened);
    EXPECT_FALSE(d.bounds_tightened);

    const ModelDelta back = diff(b, a);
    EXPECT_EQ(back.edges_added, 0);
    EXPECT_EQ(back.edges_removed, 1);
    EXPECT_TRUE(back.bounds_tightened);
}

TEST(ModelDelta, SemanticsFlipForcesIncompatibility) {
    const KernelModel a = matmul_model();
    KernelModel b = a;
    b.memory_allocation = false;
    const ModelDelta d = diff(a, b);
    EXPECT_TRUE(d.semantics_changed);
    EXPECT_FALSE(d.compatible());
    EXPECT_GE(d.distance(), 64);
}

TEST(ModelDelta, GeometryKnobChangeStaysCompatible) {
    const KernelModel a = matmul_model();
    KernelModel b = a;
    b.num_slots -= 1;
    const ModelDelta d = diff(a, b);
    EXPECT_TRUE(d.geometry_changed);
    EXPECT_FALSE(d.semantics_changed);
    EXPECT_TRUE(d.compatible());  // slots re-allocated from scratch
    EXPECT_EQ(d.distance(), 8);
}

TEST(ModelDelta, WholesaleRewireIsIncompatible) {
    const KernelModel a = matmul_model();
    KernelModel b = a;
    // Rewrite every op's name: churn far beyond the quarter-of-nodes
    // budget must fail the cheap go/no-go.
    for (const int op : b.ops) {
        b.nodes[static_cast<std::size_t>(op)].op += "_x";
    }
    const ModelDelta d = diff(a, b);
    EXPECT_TRUE(d.comparable);
    EXPECT_FALSE(d.compatible());
}

}  // namespace
}  // namespace revec::model
