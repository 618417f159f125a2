#include "revec/ir/passes.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/dsl/eval.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/validate.hpp"
#include "revec/ir/xml_io.hpp"

namespace revec::ir {
namespace {

using dsl::Program;
using dsl::Vector;

void expect_values_equal(const ir::Graph& before, const ir::Graph& after) {
    // Compare the evaluated values of program outputs. Output sets may be
    // renumbered by a pass, so compare by output order.
    const auto before_vals = dsl::evaluate(before);
    const auto after_vals = dsl::evaluate(after);
    const auto before_outs = before.output_nodes();
    const auto after_outs = after.output_nodes();
    ASSERT_EQ(before_outs.size(), after_outs.size());
    for (std::size_t i = 0; i < before_outs.size(); ++i) {
        const Value& a = before_vals[static_cast<std::size_t>(before_outs[i])];
        const Value& b = after_vals[static_cast<std::size_t>(after_outs[i])];
        ASSERT_EQ(a.kind, b.kind);
        for (int k = 0; k < kVecLen; ++k) {
            EXPECT_NEAR(std::abs(a.elems[static_cast<std::size_t>(k)] -
                                 b.elems[static_cast<std::size_t>(k)]),
                        0.0, 1e-9);
        }
    }
}

TEST(MergePass, FusesPreIntoCore) {
    Program p("pre_fuse");
    const auto a = p.in_vector(1, 2, 3, 4, "a");
    const auto b = p.in_vector({ir::Complex(0, 1), ir::Complex(1, 1), ir::Complex(2, -1),
                                ir::Complex(3, 0)},
                               "b");
    const auto conj_b = dsl::pre_conj(b);
    const auto dot = dsl::v_dotu(a, conj_b);
    p.mark_output(dot);

    PassStats st;
    const Graph merged = merge_pipeline_ops(p.ir(), &st);
    EXPECT_EQ(st.fused_pre, 1);
    EXPECT_EQ(st.fused_post, 0);
    EXPECT_EQ(merged.num_nodes(), p.ir().num_nodes() - 2);  // pre op + its data gone
    validate_graph(merged);

    // The surviving core op carries the fusion and the right operand index.
    bool found = false;
    for (const Node& n : merged.nodes()) {
        if (n.is_op() && n.op == "v_dotu") {
            EXPECT_EQ(n.pre_op, "pre_conj");
            EXPECT_EQ(n.pre_arg, 1);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    expect_values_equal(p.ir(), merged);
}

TEST(MergePass, FusesPostOntoCore) {
    Program p("post_fuse");
    const auto a = p.in_vector(4, 3, 2, 1, "a");
    const auto b = p.in_vector(1, 1, 1, 1, "b");
    const auto sum = dsl::v_add(a, b);
    const auto sorted = dsl::post_sort(sum);
    p.mark_output(sorted);

    PassStats st;
    const Graph merged = merge_pipeline_ops(p.ir(), &st);
    EXPECT_EQ(st.fused_post, 1);
    validate_graph(merged);
    bool found = false;
    for (const Node& n : merged.nodes()) {
        if (n.is_op() && n.op == "v_add") {
            EXPECT_EQ(n.post_op, "post_sort");
            found = true;
        }
    }
    EXPECT_TRUE(found);
    expect_values_equal(p.ir(), merged);
}

TEST(MergePass, FusesFullPreCorePostChain) {
    Program p("full_chain");
    const auto a = p.in_vector({ir::Complex(1, 2), ir::Complex(-3, 1), ir::Complex(0, -1),
                                ir::Complex(2, 2)},
                               "a");
    const auto b = p.in_vector(2, 2, 2, 2, "b");
    const auto masked = dsl::pre_mask(a, 0b0111);
    const auto prod = dsl::v_mul(masked, b);
    const auto sorted = dsl::post_sort(prod);
    p.mark_output(sorted);

    PassStats st;
    const Graph merged = merge_pipeline_ops(p.ir(), &st);
    EXPECT_EQ(st.fused_pre, 1);
    EXPECT_EQ(st.fused_post, 1);
    validate_graph(merged);
    bool found = false;
    for (const Node& n : merged.nodes()) {
        if (n.is_op() && n.op == "v_mul") {
            EXPECT_EQ(n.pre_op, "pre_mask");
            EXPECT_EQ(n.post_op, "post_sort");
            EXPECT_EQ(n.imm, 0b0111);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    expect_values_equal(p.ir(), merged);
}

TEST(MergePass, PostAccumChangesResultKind) {
    Program p("accum");
    const auto a = p.in_vector(1, 2, 3, 4, "a");
    const auto b = p.in_vector(5, 6, 7, 8, "b");
    const auto prod = dsl::v_mul(a, b);
    const auto total = dsl::post_accum(prod);
    p.mark_output(total);

    const Graph merged = merge_pipeline_ops(p.ir());
    validate_graph(merged);
    expect_values_equal(p.ir(), merged);
    // The fused node now produces scalar data directly.
    for (const Node& n : merged.nodes()) {
        if (n.is_op() && n.op == "v_mul") {
            EXPECT_EQ(n.post_op, "post_accum");
            EXPECT_EQ(merged.node(merged.succs(n.id)[0]).cat, NodeCat::ScalarData);
        }
    }
}

TEST(MergePass, DoesNotFuseMultiConsumerIntermediate) {
    Program p("shared");
    const auto a = p.in_vector(1, 2, 3, 4, "a");
    const auto c = dsl::pre_conj(a);
    // conj result used twice: cannot fuse it away.
    const auto d1 = dsl::v_squsum(c);
    const auto d2 = dsl::v_dotu(c, a);
    p.mark_output(d1);
    p.mark_output(d2);

    PassStats st;
    const Graph merged = merge_pipeline_ops(p.ir(), &st);
    EXPECT_EQ(st.fused_pre, 0);
    EXPECT_EQ(merged.num_nodes(), p.ir().num_nodes());
    expect_values_equal(p.ir(), merged);
}

TEST(MergePass, DoesNotFuseOutputData) {
    Program p("outdata");
    const auto a = p.in_vector(1, 2, 3, 4, "a");
    const auto c = dsl::pre_conj(a);
    p.mark_output(c);  // the intermediate is a program output
    const auto d = dsl::v_squsum(c);
    p.mark_output(d);

    PassStats st;
    const Graph merged = merge_pipeline_ops(p.ir(), &st);
    EXPECT_EQ(st.fused_pre, 0);
    expect_values_equal(p.ir(), merged);
}

TEST(MergePass, FusesMatrixHermitianPre) {
    Program p("herm");
    const auto m = p.in_matrix(
        {Vector::Elems{ir::Complex(1, 1), 2, 3, 4}, Vector::Elems{5, ir::Complex(6, -2), 7, 8},
         Vector::Elems{9, 10, 11, 12}, Vector::Elems{13, 14, 15, ir::Complex(16, 3)}},
        "m");
    const auto h = dsl::m_hermitian(m);
    const auto sums = dsl::m_squsum(h);
    p.mark_output(sums);

    PassStats st;
    const Graph merged = merge_pipeline_ops(p.ir(), &st);
    EXPECT_EQ(st.fused_pre, 1);
    validate_graph(merged);
    bool found = false;
    for (const Node& n : merged.nodes()) {
        if (n.is_op() && n.op == "m_squsum") {
            EXPECT_EQ(n.pre_op, "m_hermitian");
            found = true;
        }
    }
    EXPECT_TRUE(found);
    expect_values_equal(p.ir(), merged);
}

TEST(LowerPass, ExpandsMatrixAdd) {
    Program p("madd");
    const auto a = p.in_matrix({Vector::Elems{1, 2, 3, 4}, Vector::Elems{5, 6, 7, 8},
                                Vector::Elems{9, 10, 11, 12}, Vector::Elems{13, 14, 15, 16}},
                               "a");
    const auto b = p.in_matrix({Vector::Elems{1, 1, 1, 1}, Vector::Elems{2, 2, 2, 2},
                                Vector::Elems{3, 3, 3, 3}, Vector::Elems{4, 4, 4, 4}},
                               "b");
    const auto c = dsl::m_add(a, b);
    p.mark_output(c);

    PassStats st;
    const Graph lowered = lower_matrix_ops(p.ir(), &st);
    EXPECT_EQ(st.lowered_matrix_ops, 1);
    validate_graph(lowered);
    const arch::ArchSpec spec = arch::ArchSpec::eit();
    EXPECT_EQ(graph_stats(spec, lowered).num_matrix_ops, 0);
    EXPECT_EQ(graph_stats(spec, lowered).num_vector_ops, 4);
    expect_values_equal(p.ir(), lowered);
}

TEST(LowerPass, ExpandsSqusumWithMerge) {
    // Fig. 5: m_squsum becomes 4 v_squsum + merge.
    Program p("msq");
    const auto a = p.in_matrix({Vector::Elems{1, 2, 3, 4}, Vector::Elems{5, 6, 7, 8},
                                Vector::Elems{9, 10, 11, 12}, Vector::Elems{13, 14, 15, 16}},
                               "a");
    const auto s = dsl::m_squsum(a);
    p.mark_output(s);

    PassStats st;
    const Graph lowered = lower_matrix_ops(p.ir(), &st);
    validate_graph(lowered);
    const arch::ArchSpec spec = arch::ArchSpec::eit();
    const GraphStats stats = graph_stats(spec, lowered);
    EXPECT_EQ(stats.num_matrix_ops, 0);
    EXPECT_EQ(stats.num_vector_ops, 4);
    EXPECT_EQ(stats.num_index_merge, 1);
    expect_values_equal(p.ir(), lowered);
}

TEST(LowerPass, ExpandsVmulAndScale) {
    Program p("mix");
    const auto a = p.in_matrix({Vector::Elems{1, 2, 3, 4}, Vector::Elems{5, 6, 7, 8},
                                Vector::Elems{9, 10, 11, 12}, Vector::Elems{13, 14, 15, 16}},
                               "a");
    const auto x = p.in_vector(1, 0, -1, 2, "x");
    const auto s = p.in_scalar(ir::Complex(0.5, 0), "s");
    const auto y = dsl::m_vmul(a, x);
    const auto b = dsl::m_scale(a, s);
    p.mark_output(y);
    p.mark_output(b);

    PassStats st;
    const Graph lowered = lower_matrix_ops(p.ir(), &st);
    EXPECT_EQ(st.lowered_matrix_ops, 2);
    validate_graph(lowered);
    expect_values_equal(p.ir(), lowered);
}

TEST(LowerPass, LeavesHermitianIntact) {
    Program p("herm2");
    const auto m = p.in_matrix({Vector::Elems{1, 2, 3, 4}, Vector::Elems{5, 6, 7, 8},
                                Vector::Elems{9, 10, 11, 12}, Vector::Elems{13, 14, 15, 16}},
                               "m");
    const auto h = dsl::m_hermitian(m);
    p.mark_output(h);
    PassStats st;
    const Graph lowered = lower_matrix_ops(p.ir(), &st);
    EXPECT_EQ(st.lowered_matrix_ops, 0);
    const arch::ArchSpec spec = arch::ArchSpec::eit();
    EXPECT_EQ(graph_stats(spec, lowered).num_matrix_ops, 1);
    expect_values_equal(p.ir(), lowered);
}

TEST(Passes, LowerThenMergeComposes) {
    // Lowering first and merging afterwards must still preserve values.
    Program p("compose");
    const auto a = p.in_matrix({Vector::Elems{1, 2, 3, 4}, Vector::Elems{5, 6, 7, 8},
                                Vector::Elems{9, 10, 11, 12}, Vector::Elems{13, 14, 15, 16}},
                               "a");
    const auto s = dsl::m_squsum(a);
    const auto sorted = dsl::post_sort(s);
    p.mark_output(sorted);

    const Graph lowered = lower_matrix_ops(p.ir());
    const Graph merged = merge_pipeline_ops(lowered);
    validate_graph(merged);
    expect_values_equal(p.ir(), merged);
}

/// `after` equals `before` field for field: name, every node (ids, kinds,
/// op names, fusions, labels, immediates, output marks, input values), every
/// preds and succs list in order, and the edge count.
void expect_same_graph(const Graph& before, const Graph& after, const std::string& what) {
    EXPECT_EQ(after.name(), before.name()) << what;
    ASSERT_EQ(after.num_nodes(), before.num_nodes()) << what;
    EXPECT_EQ(after.num_edges(), before.num_edges()) << what;
    for (const Node& a : before.nodes()) {
        const Node& b = after.node(a.id);
        const std::string where = what + " node " + std::to_string(a.id);
        EXPECT_EQ(b.id, a.id) << where;
        EXPECT_EQ(b.cat, a.cat) << where;
        EXPECT_EQ(b.op, a.op) << where;
        EXPECT_EQ(b.pre_op, a.pre_op) << where;
        EXPECT_EQ(b.pre_arg, a.pre_arg) << where;
        EXPECT_EQ(b.post_op, a.post_op) << where;
        EXPECT_EQ(b.label, a.label) << where;
        EXPECT_EQ(b.imm, a.imm) << where;
        EXPECT_EQ(b.is_output, a.is_output) << where;
        ASSERT_EQ(b.input_value.has_value(), a.input_value.has_value()) << where;
        if (a.input_value.has_value()) {
            EXPECT_EQ(b.input_value->kind, a.input_value->kind) << where;
            EXPECT_EQ(b.input_value->elems, a.input_value->elems) << where;
        }
        EXPECT_EQ(after.preds(a.id), before.preds(a.id)) << where;
        EXPECT_EQ(after.succs(a.id), before.succs(a.id)) << where;
    }
}

// When nothing fuses, the merge pass returns its input unchanged: the paper
// kernels, the Fig. 3 XML read back, matrix-lowered forms and a few hundred
// seeded random kernels with fusable and matrix ops on and off. Only the
// graphs the pass reports nothing for are compared; the fused ones are the
// other tests' business.
TEST(MergePipelineOps, NoFusionResultIsTheInputGraph) {
    std::vector<std::pair<std::string, Graph>> inputs;
    inputs.emplace_back("matmul", apps::build_matmul());
    inputs.emplace_back("qrd", apps::build_qrd());
    inputs.emplace_back("arf", apps::build_arf());
    inputs.emplace_back("detect", apps::build_detect());
    inputs.emplace_back("fig3_matmul_ir.xml",
                        from_xml_string(to_xml_string(apps::build_matmul())));
    for (unsigned seed = 1; seed <= 80; ++seed) {
        for (const bool fusable : {false, true}) {
            for (const bool matrix : {false, true}) {
                apps::RandomKernelOptions o;
                o.seed = seed;
                o.num_ops = 10 + static_cast<int>(seed % 41);
                o.use_matrix = matrix;
                o.use_fusable = fusable;
                inputs.emplace_back("random(seed=" + std::to_string(seed) +
                                        (fusable ? ", fusable" : "") +
                                        (matrix ? ", matrix)" : ")"),
                                    apps::build_random_kernel(o));
            }
        }
    }
    const std::size_t built = inputs.size();
    for (std::size_t i = 0; i < built; ++i) {
        inputs.emplace_back(inputs[i].first + " lowered", lower_matrix_ops(inputs[i].second));
    }

    int unfused = 0;
    for (const auto& [name, g] : inputs) {
        PassStats st;
        const Graph merged = merge_pipeline_ops(g, &st);
        if (st.fused_pre != 0 || st.fused_post != 0) continue;
        ++unfused;
        EXPECT_EQ(st.nodes_before, g.num_nodes()) << name;
        EXPECT_EQ(st.nodes_after, g.num_nodes()) << name;
        expect_same_graph(g, merged, name);
    }
    // MATMUL, the XML copy and every kernel without fusable ops are among
    // them, so the comparison never runs on nothing.
    EXPECT_GE(unfused, 2 + 2 * 160);
}

}  // namespace
}  // namespace revec::ir
