#include "revec/ir/passes.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "revec/arch/ops.hpp"
#include "revec/support/assert.hpp"

namespace revec::ir {

namespace {

arch::Stage stage_of(const Node& n) {
    if (!n.is_op() || !arch::is_known_op(n.op)) return arch::Stage::NotApplicable;
    return arch::op_info(n.op).stage;
}

}  // namespace

Graph merge_pipeline_ops(const Graph& g, PassStats* stats) {
    PassStats local;
    local.nodes_before = g.num_nodes();

    // Fusion decisions, computed on the original graph.
    std::map<int, int> pre_of;    // core op id -> absorbed pre op id
    std::map<int, int> post_of;   // core op id -> absorbed post op id
    std::set<int> absorbed_ops;   // pre/post op ids that disappear
    std::set<int> absorbed_data;  // intermediate data ids that disappear

    // -- pre fusion: P (Pre stage) -> D -> C (Core stage) ---------------------
    for (const Node& p : g.nodes()) {
        if (stage_of(p) != arch::Stage::Pre || !p.pre_op.empty() || !p.post_op.empty()) continue;
        const auto& outs = g.succs(p.id);
        // Every output must feed the same single consumer exactly once each,
        // and none may be a program output.
        int consumer = -1;
        bool ok = !outs.empty();
        for (const int d : outs) {
            const auto& users = g.succs(d);
            if (users.size() != 1 || g.node(d).is_output) {
                ok = false;
                break;
            }
            if (consumer == -1) consumer = users[0];
            if (users[0] != consumer) {
                ok = false;
                break;
            }
        }
        if (!ok || consumer < 0) continue;
        const Node& c = g.node(consumer);
        if (stage_of(c) != arch::Stage::Core || !c.pre_op.empty()) continue;
        // Vector pre feeds vector op; matrix pre feeds matrix op.
        if (arch::op_info(p.op).is_matrix_op != arch::op_info(c.op).is_matrix_op) continue;
        // Immediate conflict: both carry one.
        if (p.imm != 0 && c.imm != 0) continue;
        if (pre_of.contains(consumer)) continue;  // one pre per core op
        pre_of[consumer] = p.id;
        absorbed_ops.insert(p.id);
        for (const int d : outs) absorbed_data.insert(d);
        ++local.fused_pre;
    }

    // -- post fusion: C (Core stage) -> D -> Q (Post stage, unary) ------------
    for (const Node& q : g.nodes()) {
        if (stage_of(q) != arch::Stage::Post || !q.pre_op.empty() || !q.post_op.empty()) continue;
        if (absorbed_ops.contains(q.id)) continue;
        const auto& ins = g.preds(q.id);
        if (ins.size() != 1) continue;  // only unary post ops fuse
        const int d = ins[0];
        if (g.node(d).is_output || g.succs(d).size() != 1) continue;
        const auto& producers = g.preds(d);
        if (producers.size() != 1) continue;
        const int core = producers[0];
        const Node& c = g.node(core);
        if (stage_of(c) != arch::Stage::Core || !c.post_op.empty()) continue;
        if (g.succs(core).size() != 1) continue;  // matrix 4-output ops cannot post-fuse
        if (q.imm != 0 && (c.imm != 0 || pre_of.contains(core))) continue;
        if (post_of.contains(core)) continue;
        post_of[core] = q.id;
        absorbed_ops.insert(q.id);
        absorbed_data.insert(d);
        ++local.fused_post;
    }

    // Nothing fuses: the input is the result. (The rebuild below would only
    // re-add its nodes and edges, in the same order for any traced or loaded
    // graph.)
    if (pre_of.empty() && post_of.empty()) {
        local.nodes_after = g.num_nodes();
        if (stats != nullptr) *stats = local;
        return g;
    }

    // -- rebuild ---------------------------------------------------------------
    Graph out(g.name());
    std::vector<int> remap(static_cast<std::size_t>(g.num_nodes()), -1);
    for (const Node& n : g.nodes()) {
        if (absorbed_ops.contains(n.id) || absorbed_data.contains(n.id)) continue;
        if (n.is_data()) {
            const int id = out.add_data(n.cat, n.label);
            Node& copy = out.node(id);
            copy.is_output = n.is_output;
            copy.input_value = n.input_value;
            remap[static_cast<std::size_t>(n.id)] = id;
        } else {
            const int id = out.add_op(n.cat, n.op, n.label);
            Node& copy = out.node(id);
            copy.pre_op = n.pre_op;
            copy.pre_arg = n.pre_arg;
            copy.post_op = n.post_op;
            copy.imm = n.imm;
            if (const auto it = pre_of.find(n.id); it != pre_of.end()) {
                const Node& p = g.node(it->second);
                copy.pre_op = p.op;
                if (p.imm != 0) copy.imm = p.imm;
            }
            if (const auto it = post_of.find(n.id); it != post_of.end()) {
                const Node& q = g.node(it->second);
                copy.post_op = q.op;
                if (q.imm != 0) copy.imm = q.imm;
            }
            remap[static_cast<std::size_t>(n.id)] = id;
        }
    }

    // Edges: iterate surviving ops; substitute absorbed neighbours.
    for (const Node& n : g.nodes()) {
        if (!n.is_op() || absorbed_ops.contains(n.id)) continue;
        const int self = remap[static_cast<std::size_t>(n.id)];

        // Inputs, with the pre op's outputs replaced by the pre op's inputs.
        std::vector<int> ins = g.preds(n.id);
        if (const auto it = pre_of.find(n.id); it != pre_of.end()) {
            const Node& p = g.node(it->second);
            const auto& p_outs = g.succs(p.id);
            const auto& p_ins = g.preds(p.id);
            for (std::size_t k = 0; k < ins.size(); ++k) {
                const auto pos = std::find(p_outs.begin(), p_outs.end(), ins[k]);
                if (pos != p_outs.end()) {
                    const std::size_t which =
                        static_cast<std::size_t>(std::distance(p_outs.begin(), pos));
                    // Positionally align the pre op's inputs with its outputs.
                    ins[k] = p_ins[std::min(which, p_ins.size() - 1)];
                    out.node(self).pre_arg = static_cast<int>(k);
                }
            }
        }
        for (const int d : ins) out.add_edge(remap[static_cast<std::size_t>(d)], self);

        // Outputs, with the post op's input replaced by the post op's output.
        std::vector<int> outs = g.succs(n.id);
        if (const auto it = post_of.find(n.id); it != post_of.end()) {
            outs = g.succs(it->second);  // the post op's own outputs
        }
        for (const int d : outs) out.add_edge(self, remap[static_cast<std::size_t>(d)]);
    }

    local.nodes_after = out.num_nodes();
    if (stats != nullptr) *stats = local;
    return out;
}

Graph lower_matrix_ops(const Graph& g, PassStats* stats) {
    PassStats local;
    local.nodes_before = g.num_nodes();

    Graph out(g.name());
    std::vector<int> remap(static_cast<std::size_t>(g.num_nodes()), -1);

    // Copy every node except matrix ops we expand.
    const auto expandable = [&](const Node& n) {
        return n.cat == NodeCat::MatrixOp && n.pre_op.empty() && n.post_op.empty() &&
               n.op != "m_hermitian";
    };
    for (const Node& n : g.nodes()) {
        if (n.is_op() && expandable(n)) continue;
        if (n.is_data()) {
            const int id = out.add_data(n.cat, n.label);
            out.node(id).is_output = n.is_output;
            out.node(id).input_value = n.input_value;
            remap[static_cast<std::size_t>(n.id)] = id;
        } else {
            const int id = out.add_op(n.cat, n.op, n.label);
            out.node(id).pre_op = n.pre_op;
            out.node(id).pre_arg = n.pre_arg;
            out.node(id).post_op = n.post_op;
            out.node(id).imm = n.imm;
            remap[static_cast<std::size_t>(n.id)] = id;
        }
    }

    // Non-expanded edges.
    for (const Node& n : g.nodes()) {
        if (!n.is_op() || expandable(n)) continue;
        const int self = remap[static_cast<std::size_t>(n.id)];
        for (const int d : g.preds(n.id)) out.add_edge(remap[static_cast<std::size_t>(d)], self);
        for (const int d : g.succs(n.id)) out.add_edge(self, remap[static_cast<std::size_t>(d)]);
    }

    // Expansion per matrix op.
    for (const Node& n : g.nodes()) {
        if (!n.is_op() || !expandable(n)) continue;
        const auto& ins = g.preds(n.id);
        const auto& outs = g.succs(n.id);
        const auto mapped = [&](int old) { return remap[static_cast<std::size_t>(old)]; };
        ++local.lowered_matrix_ops;

        if (n.op == "m_add" || n.op == "m_sub") {
            // rows: A0..A3, B0..B3 -> 4 x (v_add/v_sub)(A_i, B_i) -> out_i
            REVEC_ASSERT(ins.size() == 8 && outs.size() == 4);
            const std::string vop = n.op == "m_add" ? "v_add" : "v_sub";
            for (int i = 0; i < 4; ++i) {
                const int op = out.add_op(NodeCat::VectorOp, vop,
                                          n.label + ".row" + std::to_string(i));
                out.add_edge(mapped(ins[static_cast<std::size_t>(i)]), op);
                out.add_edge(mapped(ins[static_cast<std::size_t>(i + 4)]), op);
                out.add_edge(op, mapped(outs[static_cast<std::size_t>(i)]));
            }
        } else if (n.op == "m_scale") {
            // rows A0..A3 plus scalar s -> 4 x v_scale(A_i, s) -> out_i
            REVEC_ASSERT(ins.size() == 5 && outs.size() == 4);
            for (int i = 0; i < 4; ++i) {
                const int op = out.add_op(NodeCat::VectorOp, "v_scale",
                                          n.label + ".row" + std::to_string(i));
                out.add_edge(mapped(ins[static_cast<std::size_t>(i)]), op);
                out.add_edge(mapped(ins[4]), op);
                out.add_edge(op, mapped(outs[static_cast<std::size_t>(i)]));
            }
        } else if (n.op == "m_squsum" || n.op == "m_vmul") {
            // Per-row scalar results merged into the vector output (Fig. 5).
            REVEC_ASSERT(outs.size() == 1);
            const std::string vop = n.op == "m_squsum" ? "v_squsum" : "v_dotu";
            const int merge = out.add_op(NodeCat::MergeOp, "merge", n.label + ".merge");
            for (int i = 0; i < 4; ++i) {
                const int op = out.add_op(NodeCat::VectorOp, vop,
                                          n.label + ".row" + std::to_string(i));
                out.add_edge(mapped(ins[static_cast<std::size_t>(i)]), op);
                if (n.op == "m_vmul") out.add_edge(mapped(ins[4]), op);
                const int sc = out.add_data(NodeCat::ScalarData,
                                            n.label + ".s" + std::to_string(i));
                out.add_edge(op, sc);
                out.add_edge(sc, merge);
            }
            out.add_edge(merge, mapped(outs[0]));
        } else {
            throw Error("lower_matrix_ops: no expansion for '" + n.op + "'");
        }
    }

    local.nodes_after = out.num_nodes();
    if (stats != nullptr) *stats = local;
    return out;
}

}  // namespace revec::ir
