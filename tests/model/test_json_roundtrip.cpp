// from_json / canonical_hash / with_horizon contracts: the wire format
// revecd serves is the --dump-model shape, the cache key is the FNV-1a of
// the canonical serialization (so it must be independent of the field
// order of whatever JSON a request arrived as), and with_horizon must
// reproduce lower_ir's own ALAP/modulo handling without the spec/graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/json.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"

namespace revec::model {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

KernelModel matmul_model(const LowerOptions& options = {}) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    return lower_ir(kSpec, g, options);
}

TEST(ModelJsonRoundTrip, FlatModelSurvivesByteExactly) {
    const KernelModel m = matmul_model();
    const std::string canonical = to_json(m);
    EXPECT_EQ(to_json(from_json(canonical)), canonical);
}

TEST(ModelJsonRoundTrip, OptionalFieldsSurvive) {
    LowerOptions options;
    options.modulo = ModuloWrap{4, 0, true, 2};
    KernelModel m = matmul_model(options);
    m.fixed_starts.assign(m.nodes.size(), 3);
    m.frozen_starts.assign(m.nodes.size(), -1);
    m.frozen_starts[0] = 0;
    const std::string canonical = to_json(m);
    const KernelModel back = from_json(canonical);
    EXPECT_EQ(to_json(back), canonical);
    ASSERT_TRUE(back.modulo.has_value());
    EXPECT_EQ(back.modulo->ii, 4);
    EXPECT_EQ(back.modulo->max_stage, m.modulo->max_stage);
    EXPECT_TRUE(back.modulo->minimize_reconfigs);
    EXPECT_EQ(back.modulo->reconfig_budget, 2);
}

TEST(ModelJsonRoundTrip, ReconstructsVectorDataFlag) {
    const KernelModel m = matmul_model();
    const KernelModel back = from_json(to_json(m));
    ASSERT_EQ(back.nodes.size(), m.nodes.size());
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
        EXPECT_EQ(back.nodes[i].is_vector_data, m.nodes[i].is_vector_data) << i;
    }
}

TEST(ModelJsonRoundTrip, RejectsMissingAndMistypedFields) {
    EXPECT_THROW(from_json("[]"), Error);
    EXPECT_THROW(from_json("{}"), Error);
    json::Value doc = json::parse(to_json(matmul_model()));
    for (auto& [key, value] : doc.object) {
        if (key == "num_slots") value.type = json::Value::Type::String;
    }
    EXPECT_THROW(from_json(doc), Error);
}

/// The field `key` of JSON object `obj` (which must have it).
json::Value& field(json::Value& obj, const std::string& key) {
    for (auto& [k, v] : obj.object) {
        if (k == key) return v;
    }
    ADD_FAILURE() << "no field " << key;
    return obj;
}

// Single-field corruptions of a MATMUL dump that the solver must never
// see: a zero bank count divides by zero, an out-of-range op id indexes out
// of bounds, and a dangling edge endpoint would be scheduled silently.
TEST(ModelJsonRoundTrip, RejectsZeroBankCount) {
    json::Value doc = json::parse(to_json(matmul_model()));
    field(field(doc, "geometry"), "banks").number = 0;
    EXPECT_THROW(from_json(doc), Error);
}

TEST(ModelJsonRoundTrip, RejectsOutOfRangeOpId) {
    json::Value doc = json::parse(to_json(matmul_model()));
    field(doc, "ops").array.at(0).number = 9999;
    EXPECT_THROW(from_json(doc), Error);
}

TEST(ModelJsonRoundTrip, RejectsDanglingEdgeEndpoint) {
    json::Value doc = json::parse(to_json(matmul_model()));
    field(field(doc, "edges").array.at(0), "dst").number = 9999;
    EXPECT_THROW(from_json(doc), Error);
}

// Every other node reference and sizing field is checked the same way.
TEST(ModelJsonRoundTrip, RejectsEveryOutOfRangeReference) {
    const json::Value clean = json::parse(to_json(matmul_model()));
    ASSERT_NO_THROW(from_json(clean));
    const auto rejects = [&](const std::function<void(json::Value&)>& corrupt) {
        json::Value doc = clean;
        corrupt(doc);
        EXPECT_THROW(from_json(doc), Error);
    };
    for (const char* key : {"banks_per_page", "lines"}) {
        rejects([&](json::Value& d) { field(field(d, "geometry"), key).number = 0; });
    }
    rejects([](json::Value& d) { field(field(d, "caps"), "vector_lanes").number = -1; });
    for (const char* key : {"vector_ops", "vdata", "inputs"}) {
        rejects([&](json::Value& d) { field(d, key).array.at(0).number = -1; });
    }
    rejects([](json::Value& d) { field(field(d, "edges").array.at(0), "src").number = 1e9; });
    rejects([](json::Value& d) { field(d, "ops").array.at(0).number = 1e300; });
    // Node-level lists: corrupt the first node that has a non-empty one.
    for (const char* key : {"preds", "succs", "vector_inputs", "vector_outputs"}) {
        rejects([&](json::Value& d) {
            for (json::Value& node : field(d, "nodes").array) {
                for (auto& [k, v] : node.object) {
                    if (k == key && !v.array.empty()) {
                        v.array[0].number = 9999;
                        return;
                    }
                }
            }
            ADD_FAILURE() << "no node with a non-empty " << key;
        });
    }
}

TEST(CanonicalHash, IgnoresRequestFieldOrder) {
    const KernelModel m = matmul_model();
    const std::uint64_t expected = canonical_hash(m);

    // A client is free to send the same model with fields in any order;
    // the content address must not care.
    json::Value doc = json::parse(to_json(m));
    std::reverse(doc.object.begin(), doc.object.end());
    for (auto& [key, value] : doc.object) {
        if (key == "nodes") {
            for (json::Value& n : value.array) {
                std::reverse(n.object.begin(), n.object.end());
            }
        }
    }
    const std::string reordered = json::to_compact_string(doc);
    EXPECT_NE(reordered, to_json(m));
    EXPECT_EQ(canonical_hash(from_json(reordered)), expected);
}

TEST(CanonicalHash, StableAcrossRebuilds) {
    EXPECT_EQ(canonical_hash(matmul_model()), canonical_hash(matmul_model()));
}

TEST(CanonicalHash, DistinguishesOneOpEdit) {
    const KernelModel base = matmul_model();
    KernelModel edited = base;
    for (ModelNode& n : edited.nodes) {
        if (n.is_op) {
            n.latency += 1;
            break;
        }
    }
    EXPECT_NE(canonical_hash(edited), canonical_hash(base));

    KernelModel renamed = base;
    renamed.name = "matmul2";
    EXPECT_NE(canonical_hash(renamed), canonical_hash(base));

    KernelModel resized = base;
    resized.num_slots -= 1;
    EXPECT_NE(canonical_hash(resized), canonical_hash(base));
}

TEST(CanonicalHash, DistinguishesKernels) {
    const ir::Graph qrd = ir::merge_pipeline_ops(apps::build_qrd());
    const ir::Graph arf = ir::merge_pipeline_ops(apps::build_arf());
    const std::uint64_t h_m = canonical_hash(matmul_model());
    const std::uint64_t h_q = canonical_hash(lower_ir(kSpec, qrd));
    const std::uint64_t h_a = canonical_hash(lower_ir(kSpec, arf));
    EXPECT_NE(h_m, h_q);
    EXPECT_NE(h_m, h_a);
    EXPECT_NE(h_q, h_a);
}

TEST(WithHorizon, MatchesLowerIrAtRaisedHorizon) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    const KernelModel base = lower_ir(kSpec, g);

    LowerOptions raised;
    raised.horizon = base.critical_path + 7;
    EXPECT_EQ(to_json(with_horizon(base, base.critical_path + 7)),
              to_json(lower_ir(kSpec, g, raised)));
    // Identity raise is a no-op.
    EXPECT_EQ(to_json(with_horizon(base, base.horizon)), to_json(base));
}

TEST(WithHorizon, RecomputesModuloMaxStage) {
    LowerOptions options;
    options.modulo = ModuloWrap{4, 0, false, 0};
    const KernelModel base = matmul_model(options);
    const int horizon = base.horizon + 9;
    const KernelModel out = with_horizon(base, horizon);
    ASSERT_TRUE(out.modulo.has_value());
    EXPECT_EQ(out.modulo->max_stage, horizon / 4 + 1);
}

TEST(WithHorizon, RejectsHorizonBelowCriticalPath) {
    const KernelModel base = matmul_model();
    EXPECT_THROW(with_horizon(base, base.critical_path - 1), ContractViolation);
}

}  // namespace
}  // namespace revec::model
