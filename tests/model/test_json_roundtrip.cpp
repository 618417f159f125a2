// from_json / canonical_hash / with_horizon contracts: the wire format
// revecd serves is the --dump-model shape (the model's primary fields;
// from_json derives the rest), the cache key is the FNV-1a of the canonical
// serialization (so it must be independent of the field order of whatever
// JSON a request arrived as), and with_horizon must reproduce lower_ir's
// own ALAP/modulo handling without the spec/graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <functional>
#include <optional>
#include <string>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/json.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"

namespace revec::model {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

KernelModel matmul_model(std::optional<ModuloWrap> modulo = {}) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    return lower_ir(kSpec, g, {}, -1, modulo);
}

TEST(ModelJsonRoundTrip, FlatModelSurvivesByteExactly) {
    const KernelModel m = matmul_model();
    const std::string canonical = to_json(m);
    EXPECT_EQ(to_json(from_json(canonical)), canonical);
    EXPECT_TRUE(from_json(canonical) == m);
}

TEST(ModelJsonRoundTrip, OptionalFieldsSurvive) {
    KernelModel m = matmul_model(ModuloWrap{4, 0, true, 2});
    m.fixed_starts.assign(m.nodes.size(), 3);
    const std::string canonical = to_json(m);
    const KernelModel back = from_json(canonical);
    EXPECT_EQ(to_json(back), canonical);
    EXPECT_TRUE(back == m);
    ASSERT_TRUE(back.modulo.has_value());
    EXPECT_EQ(back.modulo->ii, 4);
    EXPECT_EQ(back.modulo->max_stage, m.modulo->max_stage);
    EXPECT_TRUE(back.modulo->minimize_reconfigs);
    EXPECT_EQ(back.modulo->reconfig_budget, 2);
}

TEST(ModelJsonRoundTrip, FrozenStartsKeyIsIgnoredLikeAnyUnknownKey) {
    // KernelModel has no partial pinning field: a "frozen_starts" key (of any
    // length) neither pins anything nor survives the round trip.
    const std::string canonical = to_json(matmul_model());
    ASSERT_EQ(canonical.rfind("{\n", 0), 0u);
    const std::string with_key = "{\n  \"frozen_starts\": [0, 1],\n" + canonical.substr(2);
    EXPECT_EQ(to_json(from_json(with_key)), canonical);
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
    EXPECT_THROW(from_json(json::to_compact_string(doc)), Error);
    // A latency the wire spells "2.5", "2-1" or "2e" is rejected, not read as 2.
    const std::string canonical = to_json(matmul_model());
    const std::size_t at = canonical.find("\"latency\": ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t value = at + std::string("\"latency\": ").size();
    const std::size_t end = canonical.find(',', value);
    for (const char* bad : {"2.5", "2-1", "2e", "+2"}) {
        const std::string text = canonical.substr(0, value) + bad + canonical.substr(end);
        EXPECT_THROW(from_json(text), Error) << bad;
    }
    EXPECT_NO_THROW(from_json(canonical.substr(0, value) + "2" + canonical.substr(end)));
}

/// The field `key` of JSON object `obj` (which must have it).
json::Value& field(json::Value& obj, const std::string& key) {
    for (auto& [k, v] : obj.object) {
        if (k == key) return v;
    }
    ADD_FAILURE() << "no field " << key;
    return obj;
}

// Of duplicate keys the first wins, in the model and in a node alike, and a
// later duplicate is skipped even when it is mistyped.
TEST(ModelJsonRoundTrip, FirstDuplicateKeyWins) {
    const KernelModel m = matmul_model();
    const std::string canonical = to_json(m);
    ASSERT_EQ(canonical.rfind("{\n", 0), 0u);
    const std::size_t node0 = canonical.find("{\"id\": 0, ");
    ASSERT_NE(node0, std::string::npos);
    const std::size_t after_id = node0 + std::string("{\"id\": 0, ").size();
    std::string text = canonical;
    // Node 0: a first "latency" ahead of the canonical one, a mistyped
    // "cat" after it.
    text.insert(after_id, "\"latency\": 77, ");
    text.insert(text.find('}', node0), ", \"cat\": 5");
    // Model: a first "name", and mistyped duplicates of both at the end.
    text = "{\"name\": \"first\", " + text.substr(1);
    const std::size_t last = text.rfind('}');
    text.insert(last, ", \"name\": 5, \"nodes\": 5");

    const KernelModel back = from_json(text);
    EXPECT_EQ(back.name, "first");
    EXPECT_EQ(back.nodes.at(0).latency, 77);
    KernelModel expected = m;
    expected.name = "first";
    expected.nodes[0].latency = 77;
    derive(expected);
    EXPECT_TRUE(back == expected);
    EXPECT_EQ(to_json(back), to_json(expected));
}

// A field the node's kind does not read is ignored whatever it holds: an
// op's "persists" (derive() clears it), and the per-kind fields an older
// dump wrote, which are unknown keys now and skipped even when mistyped.
TEST(ModelJsonRoundTrip, FieldsANodeKindDoesNotReadAreIgnored) {
    const KernelModel m = matmul_model();
    json::Value doc = json::parse(to_json(m));
    bool op_done = false;
    bool data_done = false;
    for (json::Value& node : field(doc, "nodes").array) {
        const bool is_op = !field(node, "op").str.empty();
        json::Value junk;
        junk.type = json::Value::Type::String;
        junk.str = "junk";
        if (is_op && !op_done) {
            field(node, "persists").boolean = true;
            node.object.emplace_back("is_input", junk);
            std::reverse(node.object.begin(), node.object.end());  // persists before cat
            op_done = true;
        } else if (!is_op && !data_done) {
            node.object.emplace_back("vector_inputs", junk);
            data_done = true;
        }
    }
    ASSERT_TRUE(op_done && data_done);
    const KernelModel back = from_json(json::to_compact_string(doc));
    EXPECT_TRUE(back == m);
    EXPECT_EQ(to_json(back), to_json(m));
}

// Single-field corruptions of a MATMUL dump that the solver must never
// see: a zero bank count divides by zero, an out-of-range op id (a data
// node's producer) indexes out of bounds, and a dangling edge endpoint (an
// op's input) would be scheduled silently.
TEST(ModelJsonRoundTrip, RejectsZeroBankCount) {
    json::Value doc = json::parse(to_json(matmul_model()));
    field(field(doc, "geometry"), "banks").number = 0;
    EXPECT_THROW(from_json(json::to_compact_string(doc)), Error);
}

/// The first node of `doc` whose kind is `op` (by its op name) and whose
/// preds are not empty.
json::Value& node_with_preds(json::Value& doc, bool op) {
    for (json::Value& node : field(doc, "nodes").array) {
        if (field(node, "op").str.empty() != op && !field(node, "preds").array.empty()) {
            return node;
        }
    }
    ADD_FAILURE() << "no such node";
    return doc;
}

/// The message from_json throws for `text`, or "" when it accepts it.
std::string rejection(const std::string& text) {
    try {
        (void)from_json(text);
    } catch (const Error& e) {
        return e.what();
    }
    return {};
}

TEST(ModelJsonRoundTrip, RejectsOutOfRangeOpId) {
    json::Value doc = json::parse(to_json(matmul_model()));
    field(node_with_preds(doc, false), "preds").array.at(0).number = 9999;
    EXPECT_EQ(rejection(json::to_compact_string(doc)), "kernel model: preds id out of range");
}

TEST(ModelJsonRoundTrip, RejectsDanglingEdgeEndpoint) {
    json::Value doc = json::parse(to_json(matmul_model()));
    field(node_with_preds(doc, true), "preds").array.at(0).number = -1;
    EXPECT_EQ(rejection(json::to_compact_string(doc)), "kernel model: preds id out of range");
}

// Every other node reference and sizing field is checked the same way.
TEST(ModelJsonRoundTrip, RejectsEveryOutOfRangeReference) {
    const json::Value clean = json::parse(to_json(matmul_model()));
    ASSERT_NO_THROW(from_json(json::to_compact_string(clean)));
    const auto rejects = [&](const std::function<void(json::Value&)>& corrupt) {
        json::Value doc = clean;
        corrupt(doc);
        EXPECT_THROW(from_json(json::to_compact_string(doc)), Error);
    };
    for (const char* key : {"banks_per_page", "lines"}) {
        rejects([&](json::Value& d) { field(field(d, "geometry"), key).number = 0; });
    }
    rejects([](json::Value& d) { field(field(d, "caps"), "vector_lanes").number = -1; });
    const auto first_pred = [](json::Value& d, bool op) -> double& {
        return field(node_with_preds(d, op), "preds").array.at(0).number;
    };
    rejects([&](json::Value& d) { first_pred(d, true) = 1e9; });
    rejects([&](json::Value& d) { first_pred(d, false) = 1e300; });
    // A fraction is not an int: it is rejected, never truncated.
    rejects([](json::Value& d) { field(d, "num_slots").number += 0.5; });
    rejects([&](json::Value& d) { first_pred(d, true) += 0.25; });
    rejects([](json::Value& d) { field(field(d, "nodes").array.at(0), "latency").number = 2.5; });
    // A vector-core op's configuration must name one of config_keys.
    for (const double config : {-1.0, 1e6}) {
        rejects([config](json::Value& d) {
            for (json::Value& node : field(d, "nodes").array) {
                if (field(node, "unit").str == "vector_core") {
                    field(node, "config").number = config;
                    return;
                }
            }
            ADD_FAILURE() << "no vector-core node";
        });
    }
    // Pinned starts come one per node.
    rejects([](json::Value& d) {
        json::Value starts;
        starts.type = json::Value::Type::Array;
        starts.array.resize(3);
        for (json::Value& v : starts.array) v.type = json::Value::Type::Number;
        d.object.emplace_back("fixed_starts", starts);
    });
}

// What derive() cannot finish, and an op the vector core cannot hold, is
// refused at parse time with a message naming it.
TEST(ModelJsonRoundTrip, RejectsAPredsCycle) {
    json::Value doc = json::parse(to_json(matmul_model()));
    // Input 0 fed by an op that reads it.
    json::Value& input = field(doc, "nodes").array.at(0);
    ASSERT_TRUE(field(input, "preds").array.empty());
    json::Value op;
    op.type = json::Value::Type::Number;
    op.number = 4;
    field(input, "preds").array.push_back(op);
    EXPECT_EQ(rejection(json::to_compact_string(doc)), "kernel model: preds form a cycle");
}

TEST(ModelJsonRoundTrip, RejectsASelfPred) {
    json::Value doc = json::parse(to_json(matmul_model()));
    json::Value self;
    self.type = json::Value::Type::Number;
    self.number = 4;
    field(field(doc, "nodes").array.at(4), "preds").array.push_back(self);
    EXPECT_EQ(rejection(json::to_compact_string(doc)), "kernel model: preds form a cycle");
}

// The shape a mutated MATMUL line reached the list scheduler's progress
// guard with: scalar node 11 produced by input 0 instead of op 10.
TEST(ModelJsonRoundTrip, RejectsAnEdgeBetweenTwoDataNodes) {
    json::Value doc = json::parse(to_json(matmul_model()));
    json::Value& preds = field(field(doc, "nodes").array.at(11), "preds");
    ASSERT_EQ(preds.array.at(0).number, 10);
    preds.array.at(0).number = 0;
    EXPECT_EQ(rejection(json::to_compact_string(doc)),
              "kernel model: an edge joins two nodes of one kind");
}

TEST(ModelJsonRoundTrip, RejectsADataNodeWithTwoProducers) {
    json::Value doc = json::parse(to_json(matmul_model()));
    json::Value& preds = field(field(doc, "nodes").array.at(11), "preds");
    json::Value second = preds.array.at(0);
    second.number = 8;
    preds.array.push_back(second);
    EXPECT_EQ(rejection(json::to_compact_string(doc)),
              "kernel model: a data node has two producers");
}

TEST(ModelJsonRoundTrip, RejectsAnUnknownCat) {
    json::Value doc = json::parse(to_json(matmul_model()));
    field(field(doc, "nodes").array.at(4), "cat").str = "vector_opp";
    EXPECT_EQ(rejection(json::to_compact_string(doc)), "unknown node category 'vector_opp'");
}

TEST(ModelJsonRoundTrip, RejectsMoreSlotsThanTheMemoryHolds) {
    // lower_for_schedule refuses num_slots past the memory when it allocates;
    // a wire model must not get round that (a cold solve of one used to
    // overflow the CP engine's span). The rule holds whichever of the two
    // keys comes first.
    const KernelModel m = matmul_model();
    const double slots = m.geometry.slots();
    json::Value doc = json::parse(to_json(m));
    field(doc, "num_slots").number = 100000000;
    EXPECT_EQ(rejection(json::to_compact_string(doc)),
              "kernel model JSON: num_slots exceeds the geometry's slots");
    std::rotate(doc.object.begin(), doc.object.begin() + 5, doc.object.end());
    ASSERT_EQ(doc.object.front().first, "memory_allocation");
    EXPECT_EQ(rejection(json::to_compact_string(doc)),
              "kernel model JSON: num_slots exceeds the geometry's slots");

    field(doc, "num_slots").number = slots;
    EXPECT_EQ(rejection(json::to_compact_string(doc)), "");
    field(doc, "num_slots").number = 100000000;
    field(doc, "memory_allocation").boolean = false;  // no slot is assigned
    EXPECT_EQ(rejection(json::to_compact_string(doc)), "");
}

TEST(ModelJsonRoundTrip, RejectsANonPositiveModuloIi) {
    const std::string wrapped = to_json(matmul_model(ModuloWrap{4, 0, false, 0}));
    const std::string ii = "\"ii\": 4";
    const std::size_t at = wrapped.find(ii);
    ASSERT_NE(at, std::string::npos);
    for (const char* bad : {"0", "-4"}) {
        std::string text = wrapped;
        text.replace(at, ii.size(), std::string("\"ii\": ") + bad);
        EXPECT_EQ(rejection(text), "kernel model: modulo ii must be positive") << bad;
    }
}

// The mutation that once reached the list scheduler: an op of 71 lanes on
// a 4-lane core can never issue.
TEST(ModelJsonRoundTrip, RejectsOpLanesOutsideTheVectorCore) {
    const json::Value clean = json::parse(to_json(matmul_model()));
    for (const double lanes : {71.0, 5.0, -1.0}) {
        json::Value doc = clean;
        for (json::Value& node : field(doc, "nodes").array) {
            if (field(node, "unit").str == "vector_core") {
                field(node, "lanes").number = lanes;
                break;
            }
        }
        EXPECT_EQ(rejection(json::to_compact_string(doc)),
                  "kernel model JSON: op lanes outside [0, caps.vector_lanes]")
            << lanes;
    }
    json::Value full = clean;
    field(field(full, "nodes").array.at(4), "lanes").number = 4;
    EXPECT_EQ(rejection(json::to_compact_string(full)), "");
}

// Timings bound the list scheduler's per-cycle window: an op's latency and
// duration lie in [1, kMaxLatency], a data node's in [0, kMaxLatency].
TEST(ModelJsonRoundTrip, RejectsLatencyOrDurationOutsideTheCap) {
    const json::Value clean = json::parse(to_json(matmul_model()));
    const auto with = [&](bool op, const char* key, double value) {
        json::Value doc = clean;
        for (json::Value& node : field(doc, "nodes").array) {
            if (field(node, "op").str.empty() != op) {
                field(node, key).number = value;
                break;
            }
        }
        return rejection(json::to_compact_string(doc));
    };
    for (const double bad : {-3.0, 0.0, 1025.0, 1000000.0}) {
        EXPECT_EQ(with(true, "latency", bad),
                  "kernel model JSON: op latency outside [1, kMaxLatency]")
            << bad;
    }
    for (const double bad : {-2.0, 0.0, 1025.0}) {
        EXPECT_EQ(with(true, "duration", bad),
                  "kernel model JSON: op duration outside [1, kMaxLatency]")
            << bad;
    }
    for (const double bad : {-1.0, 1025.0}) {
        EXPECT_EQ(with(false, "latency", bad),
                  "kernel model JSON: data latency outside [0, kMaxLatency]")
            << bad;
        EXPECT_EQ(with(false, "duration", bad),
                  "kernel model JSON: data duration outside [0, kMaxLatency]")
            << bad;
    }
    EXPECT_EQ(with(true, "latency", arch::kMaxLatency), "");
    EXPECT_EQ(with(true, "duration", arch::kMaxLatency), "");
    EXPECT_EQ(with(false, "latency", arch::kMaxLatency), "");
}

// The slot allocator sizes a table by the slot count: a geometry of more
// than kMaxSlots slots (2^20 here, or one whose count overflows an int) is
// refused.
TEST(ModelJsonRoundTrip, RejectsAGeometryPastTheSlotCap) {
    const json::Value clean = json::parse(to_json(matmul_model()));
    for (const double lines : {65536.0, 2147483647.0}) {
        json::Value doc = clean;
        field(field(doc, "geometry"), "lines").number = lines;
        EXPECT_EQ(rejection(json::to_compact_string(doc)),
                  "kernel model JSON: geometry holds more than kMaxSlots slots")
            << lines;
    }
    json::Value most = clean;
    field(field(most, "geometry"), "lines").number = arch::kMaxSlots / 16;
    EXPECT_EQ(rejection(json::to_compact_string(most)), "");
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

// The wire hash is a published content address (revecd answers carry it
// and clients may key on it), so the canonical bytes are pinned literally:
// any change to to_json's output, however cosmetic, moves these values.
TEST(CanonicalHash, PinsThePaperKernelsWireHashes) {
    struct Golden {
        const char* name;
        ir::Graph (*build)();
        std::uint64_t hash;
        std::size_t bytes;
    };
    const Golden goldens[] = {
        {"matmul", [] { return apps::build_matmul(); }, 0x961498e4c5b6cd57ull, 7381},
        {"qrd", [] { return apps::build_qrd(); }, 0x667ee6fd34fa5879ull, 20126},
        {"arf", [] { return apps::build_arf(); }, 0x7ce635b185268a49ull, 13860},
    };
    for (const Golden& g : goldens) {
        const KernelModel m =
            sched::lower_for_schedule(ir::merge_pipeline_ops(g.build()), {});
        const std::string canonical = to_json(m);
        EXPECT_EQ(canonical.size(), g.bytes) << g.name;
        EXPECT_EQ(canonical_hash(m), g.hash) << g.name;
        EXPECT_EQ(canonical_hash(canonical), canonical_hash(m)) << g.name;
    }
}

TEST(WithHorizon, MatchesLowerIrAtRaisedHorizon) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    const KernelModel base = lower_ir(kSpec, g);

    EXPECT_EQ(to_json(with_horizon(base, base.critical_path + 7)),
              to_json(lower_ir(kSpec, g, {}, base.critical_path + 7)));
    // Identity raise is a no-op.
    EXPECT_EQ(to_json(with_horizon(base, base.horizon)), to_json(base));
}

TEST(WithHorizon, RecomputesModuloMaxStage) {
    const KernelModel base = matmul_model(ModuloWrap{4, 0, false, 0});
    const int horizon = base.horizon + 9;
    const KernelModel out = with_horizon(base, horizon);
    ASSERT_TRUE(out.modulo.has_value());
    EXPECT_EQ(out.modulo->max_stage, horizon / 4 + 1);
}

/// `m` at `horizon` by a full derive().
KernelModel derived_at(KernelModel m, int horizon) {
    m.horizon = horizon;
    derive(m);
    return m;
}

TEST(WithHorizon, ShiftEqualsFullDeriveOnModuloModelsAndLargeHorizons) {
    // The largest horizon derive() accepts: |horizon| + 1 + the summed
    // latencies must fit an int.
    const KernelModel flat = matmul_model();
    int latencies = 0;
    for (const ModelNode& node : flat.nodes) latencies += node.latency;
    const int largest = INT_MAX - 1 - latencies;

    for (const KernelModel& base : {flat, matmul_model(ModuloWrap{4, 0, false, 0}),
                                    matmul_model(ModuloWrap{5, 0, true, 2})}) {
        for (const int horizon :
             {base.critical_path, base.critical_path + 13, 1 << 20, largest}) {
            const KernelModel shifted = with_horizon(base, horizon);
            EXPECT_TRUE(shifted == derived_at(base, horizon)) << horizon;
            // Lowering back is the same shift the other way.
            EXPECT_TRUE(with_horizon(shifted, base.horizon) == base) << horizon;
        }
    }
}

TEST(WithHorizon, RejectsHorizonBelowCriticalPath) {
    for (const KernelModel& base : {matmul_model(), matmul_model(ModuloWrap{4, 0, false, 0})}) {
        EXPECT_THROW(with_horizon(base, base.critical_path - 1), ContractViolation);
    }
}

TEST(WithHorizon, KeepsDeriveOverflowRefusal) {
    for (const KernelModel& base : {matmul_model(), matmul_model(ModuloWrap{4, 0, false, 0})}) {
        int latencies = 0;
        for (const ModelNode& node : base.nodes) latencies += node.latency;
        const int past = INT_MAX - latencies;  // one past the largest derivable
        EXPECT_THROW(derived_at(base, past), Error);
        EXPECT_THROW(with_horizon(base, past), Error);
        EXPECT_THROW(with_horizon(base, INT_MAX), Error);
    }
}

}  // namespace
}  // namespace revec::model
