// An oracle for model::derive that does not go through it. Over the paper
// kernels and a seeded random corpus, merged and as traced, the derived
// fields lower_ir fills equal what the IR itself says: ASAP/ALAP/critical
// path (and so the default horizon) from the ir:: analyses, succs from the
// graph, edges in the graph's (src, succ) order, and the id lists from the
// graph's node categories. The wire form carries
// the primary fields only, yet reads back to the same model field for field
// under every lowering: default, paper lifetime rule, raised horizon and
// modulo wrap. A dump written before the wire dropped its derived fields
// reads to the same model, and what it says about them is not trusted.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/json.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/support/json.hpp"

namespace revec::model {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

struct Kernel {
    std::string name;
    ir::Graph g;
};

/// MATMUL, QRD, ARF and DETECT, then random kernels of 12, 30 and 70 ops
/// with and without matrix ops: each merged as every scheduler sees it,
/// then as traced. MATMUL merged comes first.
const std::vector<Kernel>& corpus() {
    static const std::vector<Kernel> kernels = [] {
        std::vector<Kernel> traced;
        traced.push_back({"matmul", apps::build_matmul()});
        traced.push_back({"qrd", apps::build_qrd()});
        traced.push_back({"arf", apps::build_arf()});
        traced.push_back({"detect", apps::build_detect()});
        for (unsigned seed = 1; seed <= 10; ++seed) {
            for (const int ops : {12, 30, 70}) {
                for (const bool matrix : {false, true}) {
                    apps::RandomKernelOptions o;
                    o.seed = seed;
                    o.num_ops = ops;
                    o.use_matrix = matrix;
                    traced.push_back({"random(seed=" + std::to_string(seed) + ", ops=" +
                                          std::to_string(ops) + (matrix ? ", matrix)" : ")"),
                                      apps::build_random_kernel(o)});
                }
            }
        }
        std::vector<Kernel> out;
        for (const Kernel& k : traced) out.push_back({k.name, ir::merge_pipeline_ops(k.g)});
        for (Kernel& k : traced) out.push_back({k.name + " unmerged", std::move(k.g)});
        return out;
    }();
    return kernels;
}

TEST(DeriveOracle, LoweredTimesMatchTheIrAnalyses) {
    for (const Kernel& k : corpus()) {
        const KernelModel m = lower_ir(kSpec, k.g);
        const int cp = ir::critical_path_length(kSpec, k.g);
        EXPECT_EQ(m.critical_path, cp) << k.name;
        EXPECT_EQ(m.horizon, cp) << k.name;
        EXPECT_EQ(m.asap, ir::asap_times(kSpec, k.g)) << k.name;
        EXPECT_EQ(m.alap, ir::alap_times(kSpec, k.g, cp)) << k.name;
        const KernelModel raised = lower_ir(kSpec, k.g, {}, cp + 5);
        EXPECT_EQ(raised.critical_path, cp) << k.name;
        EXPECT_EQ(raised.alap, ir::alap_times(kSpec, k.g, cp + 5)) << k.name;
        // The default horizon is derive's critical path, modulo wrap or not.
        const KernelModel wrapped = lower_ir(kSpec, k.g, {}, -1, ModuloWrap{4, 0, true, 3});
        EXPECT_EQ(wrapped.horizon, cp) << k.name;
        EXPECT_EQ(wrapped.alap, m.alap) << k.name;
        EXPECT_EQ(wrapped.modulo->max_stage, cp / 4 + 1) << k.name;
    }
}

TEST(DeriveOracle, LoweredAdjacencyFollowsTheGraph) {
    for (const Kernel& k : corpus()) {
        const ir::Graph& g = k.g;
        const KernelModel m = lower_ir(kSpec, g);
        ASSERT_EQ(m.num_nodes(), g.num_nodes()) << k.name;

        std::vector<ModelEdge> edges;
        std::vector<int> vector_ops;
        for (const ir::Node& node : g.nodes()) {
            const ir::NodeTiming t = ir::node_timing(kSpec, node);
            if (node.is_op() && t.lanes > 0) vector_ops.push_back(node.id);
            for (const int s : g.succs(node.id)) {
                edges.push_back({node.id, s, t.latency,
                                 g.node(s).is_data() ? EdgeKind::DataProduce
                                                     : EdgeKind::Precedence});
            }
        }
        EXPECT_TRUE(m.edges == edges) << k.name;
        EXPECT_EQ(m.ops, g.op_nodes()) << k.name;
        EXPECT_EQ(m.vector_ops, vector_ops) << k.name;
        EXPECT_EQ(m.vdata, g.nodes_of(ir::NodeCat::VectorData)) << k.name;
        EXPECT_EQ(m.inputs, g.input_nodes()) << k.name;

        for (const ir::Node& node : g.nodes()) {
            const ModelNode& n = m.node(node.id);
            EXPECT_EQ(n.is_op, node.is_op()) << k.name << " node " << node.id;
            EXPECT_EQ(n.is_vector_data, node.cat == ir::NodeCat::VectorData) << k.name;
            EXPECT_EQ(n.preds, g.preds(node.id)) << k.name << " node " << node.id;
            EXPECT_EQ(n.succs, g.succs(node.id)) << k.name << " node " << node.id;
            std::vector<int> vin;
            std::vector<int> vout;
            if (node.is_op()) {
                for (const int p : g.preds(node.id)) {
                    if (g.node(p).cat == ir::NodeCat::VectorData) vin.push_back(p);
                }
                for (const int s : g.succs(node.id)) {
                    if (g.node(s).cat == ir::NodeCat::VectorData) vout.push_back(s);
                }
            }
            EXPECT_EQ(n.vector_inputs, vin) << k.name << " node " << node.id;
            EXPECT_EQ(n.vector_outputs, vout) << k.name << " node " << node.id;
            EXPECT_EQ(n.is_input, node.is_data() && g.preds(node.id).empty()) << k.name;
            EXPECT_EQ(n.persists,
                      node.is_data() && (g.succs(node.id).empty() || node.is_output))
                << k.name << " node " << node.id;
        }
    }
}

/// The four lowerings of `g`: default, the paper-literal lifetime rule, a
/// raised horizon, and a reconfiguration-aware modulo wrap.
std::vector<KernelModel> lowerings(const ir::Graph& g) {
    LowerOptions paper;
    paper.lifetime_includes_last_read = false;
    const KernelModel base = lower_ir(kSpec, g);
    return {base, lower_ir(kSpec, g, paper), lower_ir(kSpec, g, {}, base.critical_path + 7),
            lower_ir(kSpec, g, {}, -1, ModuloWrap{4, 0, true, 3})};
}

TEST(DeriveOracle, WireRoundTripIsExactUnderEveryLowering) {
    for (const Kernel& k : corpus()) {
        int which = 0;
        for (const KernelModel& m : lowerings(k.g)) {
            const std::string text = to_json(m);
            const KernelModel back = from_json(text);
            EXPECT_TRUE(back == m) << k.name << " lowering " << which;
            EXPECT_EQ(to_json(back), text) << k.name << " lowering " << which;
            KernelModel again = m;
            derive(again);
            EXPECT_TRUE(again == m) << k.name << " lowering " << which;
            ++which;
        }
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// The MATMUL dump in the format that still carried every derived field
/// (succs, edges, ops, asap, ...), as --dump-model wrote it.
json::Value old_format_dump() {
    const std::string text =
        read_file(std::string(REVEC_MODEL_GOLDEN_DIR) + "/matmul_model_old_format.json");
    EXPECT_FALSE(text.empty());
    return json::parse(text);
}

json::Value& field(json::Value& obj, const std::string& key) {
    for (auto& [k, v] : obj.object) {
        if (k == key) return v;
    }
    ADD_FAILURE() << "no field " << key;
    return obj;
}

KernelModel matmul_model() { return lower_ir(kSpec, corpus().front().g); }

TEST(ModelJsonRoundTrip, OldFormatDumpReadsToTheSameModel) {
    const KernelModel back = from_json(json::to_compact_string(old_format_dump()));
    EXPECT_TRUE(back == matmul_model());
    EXPECT_EQ(to_json(back), to_json(matmul_model()));
}

// What an older dump says about a derived field is recomputed: a stale
// ASAP or critical path, an edge latency that disagrees with its source,
// succs that disagree with preds and an op list naming a data node (the
// shapes that once reached the list scheduler's progress guard) all read
// to the model the primary fields describe.
TEST(ModelJsonRoundTrip, OldFormatDumpsDerivedFieldsAreNotTrusted) {
    json::Value doc = old_format_dump();
    field(doc, "asap").array.at(5).number = 3;
    field(doc, "alap").array.at(0).number = 99;
    field(doc, "critical_path").number = 9;
    field(doc, "ops").array.at(0).number = 0;
    field(field(doc, "edges").array.at(0), "latency").number = 5;
    field(field(doc, "nodes").array.at(0), "succs").array.at(0).number = 39;
    const KernelModel back = from_json(json::to_compact_string(doc));
    EXPECT_TRUE(back == matmul_model());
    EXPECT_EQ(back.asap.at(5), 7);
    EXPECT_EQ(back.critical_path, 8);
}

}  // namespace
}  // namespace revec::model
