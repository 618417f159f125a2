// Seeded single-byte mutations of real request and response lines against
// the wire readers (the first piece of a protocol fuzzer). Per mutated
// request line:
// parse_request rejects every line the JSON grammar (json::parse) rejects,
// and accepts only lines the grammar accepts; every model it accepts
// round-trips to_json -> from_json -> to_json byte for byte; and nothing
// but revec::Error escapes either reader. The readers share one tokenizer
// and the round trip re-reads with the same from_json, so two oracles that
// do not go through from_json back them: an accepted model holds the
// values the line's tree holds, and it is well formed. Response lines of
// each shape serialize_response writes go through parse_response the same
// way: only revec::Error escapes, an accepted line is grammatical, and its
// re-serialized form is a fixed point of parse + serialize. A third run
// sends mutated request lines through a service whose cache holds the
// unmutated models, where a hit never reads its model: the service must
// answer exactly as a cold read of each line would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "revec/apps/matmul.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/model/json.hpp"
#include "revec/obs/metrics.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"
#include "revec/support/rng.hpp"
#include "revec/svc/protocol.hpp"
#include "revec/svc/service.hpp"

namespace revec::svc {
namespace {

std::string request_line(const ir::Graph& g) {
    Request req;
    req.kind = RequestKind::Solve;
    req.id = 17;
    req.rid = 0x0123456789abcdefull;
    req.deadline_ms = 1000;
    req.params.threads = 2;
    req.model = sched::lower_for_schedule(ir::merge_pipeline_ops(g), sched::ScheduleOptions{});
    return serialize_request(req);
}

/// Bytes an insertion or a replacement draws from half the time: the ones
/// that move the grammar or the schema; the other half are uniform.
constexpr std::string_view kStructural = "{}[],:\"\\ 0123456789-+.eEtfnu";

char mutant_byte(XorShift& rng) {
    if (rng.below(2) == 0) {
        return kStructural[static_cast<std::size_t>(rng.below(kStructural.size()))];
    }
    return static_cast<char>(rng.next() & 0xff);
}

/// The invariants every model from_json accepts must hold, checked without
/// it: dense node ids, node and configuration references in range,
/// per-node array sizes, positive geometry.
void expect_well_formed(const model::KernelModel& m, const std::string& line) {
    const int n = m.num_nodes();
    const auto in_range = [n](const std::vector<int>& ids) {
        return std::all_of(ids.begin(), ids.end(), [n](int id) { return id >= 0 && id < n; });
    };
    bool ok = m.asap.size() == m.nodes.size() && m.alap.size() == m.nodes.size() &&
              in_range(m.ops) && in_range(m.vector_ops) && in_range(m.vdata) &&
              in_range(m.inputs) && m.geometry.banks > 0 && m.geometry.banks_per_page > 0 &&
              m.geometry.lines > 0 && m.caps.vector_lanes > 0;
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
        const model::ModelNode& node = m.nodes[i];
        const bool vector_op = node.is_op && node.unit == model::Unit::VectorCore;
        ok = ok && node.id == static_cast<int>(i) && in_range(node.preds) &&
             in_range(node.succs) && in_range(node.vector_inputs) &&
             in_range(node.vector_outputs) &&
             (!vector_op ||
              (node.config >= 0 && node.config < static_cast<int>(m.config_keys.size())));
    }
    for (const model::ModelEdge& e : m.edges) ok = ok && in_range({e.src, e.dst});
    EXPECT_TRUE(ok) << "accepted a malformed model: " << line;
}

/// `model` (a tree of the to_json shape) as from_json reads it: a node
/// key it does not know is dropped, and a node without `persists` (the
/// one optional node key) reads as not persisting.
json::Value as_read(json::Value model) {
    static const std::vector<std::string> kNodeKeys = {
        "id", "cat", "op", "latency", "duration", "lanes", "unit", "config", "preds", "persists",
    };
    for (auto& [key, nodes] : model.object) {
        if (key != "nodes") continue;
        for (json::Value& node : nodes.array) {
            json::Value read = node;
            read.object.clear();
            for (const std::string& k : kNodeKeys) {
                if (const json::Value* v = node.find(k)) read.object.emplace_back(k, *v);
            }
            if (node.find("persists") == nullptr) {
                json::Value no;
                no.type = json::Value::Type::Bool;
                read.object.emplace_back("persists", no);
            }
            node = std::move(read);
        }
    }
    return model;
}

/// `line` with one byte flipped (one bit), replaced, inserted or deleted.
std::string mutate(const std::string& line, XorShift& rng) {
    std::string out = line;
    const auto at = static_cast<std::size_t>(rng.below(static_cast<int>(out.size())));
    switch (rng.below(4)) {
        case 0: out[at] = static_cast<char>(out[at] ^ (1 << rng.below(8))); break;
        case 1: out[at] = mutant_byte(rng); break;
        case 2: out.insert(at, 1, mutant_byte(rng)); break;
        default: out.erase(at, 1); break;
    }
    return out;
}

TEST(WireMutation, RequestReaderAgreesWithTheGrammarAndRoundTrips) {
    apps::RandomKernelOptions ko;
    ko.seed = 5;
    ko.num_ops = 12;
    const std::string lines[] = {request_line(apps::build_matmul()),
                                 request_line(apps::build_random_kernel(ko))};
    XorShift rng(20261018);
    int grammar_rejects = 0;
    int accepted_solves = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const std::string line = mutate(lines[trial % 2], rng);
        std::optional<json::Value> tree;
        try {
            tree = json::parse(line);
        } catch (const Error&) {
        }
        const bool grammar_ok = tree.has_value();
        std::optional<Request> req;
        try {
            req = parse_request(line);
        } catch (const Error&) {
        }
        grammar_rejects += grammar_ok ? 0 : 1;
        if (!req) continue;
        ASSERT_TRUE(grammar_ok) << "accepted a line json::parse rejects: " << line;
        if (req->kind != RequestKind::Solve) continue;
        ++accepted_solves;
        ASSERT_TRUE(req->model.has_value());
        const std::string canonical = model::to_json(*req->model);
        ASSERT_EQ(model::to_json(model::from_json(canonical)), canonical) << line;
        // A single byte cannot rename a model key without dropping a
        // required one, bar a node's optional `persists`, so the tree's
        // model read the way from_json reads it has the canonical keys in
        // the canonical order and its compact text is the canonical one: a
        // value the reader misread or accepted out of range shows here.
        const json::Value* tree_model = tree->find("model");
        ASSERT_NE(tree_model, nullptr);
        ASSERT_EQ(json::to_compact_string(as_read(*tree_model)),
                  json::to_compact_string(json::parse(canonical)))
            << line;
        expect_well_formed(*req->model, line);
    }
    // Both branches ran: the mutations are neither all fatal nor all benign.
    EXPECT_GT(grammar_rejects, 100);
    EXPECT_GT(accepted_solves, 100);
}

int counter(const Service& service, const std::string& name) {
    const json::Value doc = json::parse(service.metrics_json());
    const json::Value* v = doc.find("counters")->find(name);
    return v == nullptr ? 0 : static_cast<int>(v->number);
}

// The byte path against a cold read. A service has solved both unmutated
// models from their lines, so a mutated line whose model bytes are intact
// is answered from the cache without its model being read. The lines ask
// for deadline 0, so every miss is shed to the heuristic inline and no
// line starts a search. For every line: the service refuses it as a parse
// error exactly when a cold parse_request throws, with the same message;
// every hit's schedule passes
// check_schedule against the line's own model and carries its hash; and
// accepted lines whose model bytes are equal read as equal models.
TEST(WireMutation, CachedServiceAnswersLikeAColdRead) {
    apps::RandomKernelOptions ko;
    ko.seed = 5;
    ko.num_ops = 12;
    Service service(Service::Config{});
    std::string lines[2];
    const ir::Graph graphs[] = {apps::build_matmul(), apps::build_random_kernel(ko)};
    for (int i = 0; i < 2; ++i) {
        Request req;
        req.kind = RequestKind::Solve;
        req.id = 17;
        req.rid = 0x0123456789abcdefull;
        req.model = sched::lower_for_schedule(ir::merge_pipeline_ops(graphs[i]),
                                              sched::ScheduleOptions{});
        const Response warm = parse_response(service.handle_line(serialize_request(req)));
        ASSERT_EQ(warm.status, cp::SolveStatus::Optimal) << warm.error;
        req.deadline_ms = 0;
        lines[i] = serialize_request(req);
    }
    XorShift rng(20261020);
    std::map<std::string, std::string> canonical_of_span;
    int refused = 0;
    int hits = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const std::string line = mutate(lines[trial % 2], rng);
        std::optional<Request> cold;
        std::string cold_error;
        try {
            cold = parse_request(line);
        } catch (const Error& e) {
            cold_error = e.what();
        }
        const Response r = parse_response(service.handle_line(line));
        if (!cold) {
            // Refused with the very error a cold read stops at.
            ASSERT_FALSE(r.ok) << line;
            ASSERT_EQ(r.error, cold_error) << line;
            ++refused;
            continue;
        }
        if (!r.ok) {
            // Accepted, then failed by the solver (a mutated model it cannot
            // schedule): not a parse error, and never a broken invariant,
            // which would mean the reader let through a model the solver
            // assumes cannot exist.
            ASSERT_EQ(counter(service, "svc.req.parse_errors"), refused) << r.error;
            ASSERT_NE(r.error.rfind("Invariant failed", 0), 0u) << r.error << "\n" << line;
            continue;
        }
        if (cold->kind != RequestKind::Solve) continue;
        const std::string canonical = model::to_json(*cold->model);
        const auto [it, fresh] = canonical_of_span.emplace(cold->model_text, canonical);
        ASSERT_TRUE(fresh || it->second == canonical) << line;
        if (!r.cache_hit) continue;
        ++hits;
        ASSERT_TRUE(model::check_schedule(*cold->model, r.start, r.slot, r.makespan).empty())
            << line;
        ASSERT_EQ(r.model_hash, model::canonical_hash(canonical)) << line;
    }
    // Both branches ran, and some lines were served unread.
    EXPECT_GT(counter(service, "svc.cache.hit_unread"), 0);
    EXPECT_GT(hits, 0);
    EXPECT_GT(refused, 100);
    EXPECT_EQ(counter(service, "svc.req.parse_errors"), refused);
}

/// The four response shapes serialize_response writes.
std::vector<Response> response_shapes() {
    Response solve;
    solve.id = 17;
    solve.rid = 0x0123456789abcdefull;
    solve.ok = true;
    solve.status = cp::SolveStatus::Optimal;
    solve.makespan = 11;
    solve.slots_used = 6;
    for (int i = 0; i < 24; ++i) {
        solve.start.push_back(i / 2);
        solve.slot.push_back(i % 3 == 0 ? -1 : i % 8);
    }
    solve.near_hit = true;
    solve.solve_ms = 3.0;
    solve.model_hash = 0xfedcba9876543210ull;
    solve.flight = "flight-dumps/flight-00000004-0123456789abcdef.jsonl";

    Response error;
    error.id = 18;
    error.error = "solve request needs a 'model' object \"quoted\"\n";

    Response ack;
    ack.id = 19;
    ack.ok = true;
    ack.ack = true;

    obs::MetricsRegistry registry;
    registry.add("svc.req.count", 5);
    registry.gauge("svc.cache.size", 2.0);
    registry.label("svc.build", "release \"r1\"");
    registry.observe("svc.phase.parse_ms", 0.25);
    Response stats;
    stats.id = 20;
    stats.ok = true;
    stats.metrics_json = registry.to_json();
    return {solve, error, ack, stats};
}

/// A metrics document's value, whatever its layout.
std::string compact(const std::string& json_text) {
    return json_text.empty() ? json_text : json::to_compact_string(json::parse(json_text));
}

void expect_same_fields(const Response& got, const Response& want) {
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.rid, want.rid);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.ack, want.ack);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.slots_used, want.slots_used);
    EXPECT_EQ(got.start, want.start);
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(got.cache_hit, want.cache_hit);
    EXPECT_EQ(got.near_hit, want.near_hit);
    EXPECT_EQ(got.shed, want.shed);
    EXPECT_EQ(got.solve_ms, want.solve_ms);
    EXPECT_EQ(got.model_hash, want.model_hash);
    EXPECT_EQ(got.flight, want.flight);
    EXPECT_EQ(compact(got.metrics_json), compact(want.metrics_json));
}

TEST(WireMutation, ResponseReaderRejectsOnlyWithErrorAndRoundTrips) {
    const std::vector<Response> shapes = response_shapes();
    std::vector<std::string> lines;
    for (const Response& r : shapes) {
        lines.push_back(serialize_response(r));
        expect_same_fields(parse_response(lines.back()), r);
    }
    XorShift rng(20261019);
    int rejects = 0;
    int accepts = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const std::string line = mutate(lines[static_cast<std::size_t>(trial) % lines.size()], rng);
        std::optional<Response> r;
        try {
            r = parse_response(line);
        } catch (const Error&) {
        }
        if (!r) {
            ++rejects;
            continue;
        }
        ++accepts;
        bool grammar_ok = true;
        try {
            (void)json::parse(line);
        } catch (const Error&) {
            grammar_ok = false;
        }
        ASSERT_TRUE(grammar_ok) << "accepted a line json::parse rejects: " << line;
        const std::string once = serialize_response(*r);
        ASSERT_EQ(serialize_response(parse_response(once)), once) << line;
    }
    EXPECT_GT(rejects, 100);
    EXPECT_GT(accepts, 100);
}

}  // namespace
}  // namespace revec::svc
