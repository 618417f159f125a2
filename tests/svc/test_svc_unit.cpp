// Unit coverage of the service building blocks: the NDJSON protocol
// round-trip, the content-addressed cache's exact-match and LRU
// behaviour, and the solver pool's bounded admission.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/json.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"
#include "revec/svc/cache.hpp"
#include "revec/svc/pool.hpp"
#include "revec/svc/protocol.hpp"
#include "revec/svc/service.hpp"

namespace revec::svc {
namespace {

model::KernelModel lowered(const ir::Graph& g) {
    return sched::lower_for_schedule(ir::merge_pipeline_ops(g), sched::ScheduleOptions{});
}

model::KernelModel matmul_model() { return lowered(apps::build_matmul()); }

TEST(SvcProtocol, SolveRequestRoundTrips) {
    Request req;
    req.kind = RequestKind::Solve;
    req.id = 42;
    req.deadline_ms = 750;
    req.params.threads = 3;
    req.params.seed = 7;
    req.params.warm_start = false;
    req.params.heuristic_only = true;
    req.model = matmul_model();

    const Request back = parse_request(serialize_request(req));
    EXPECT_EQ(back.kind, RequestKind::Solve);
    EXPECT_EQ(back.id, 42);
    EXPECT_EQ(back.deadline_ms, 750);
    EXPECT_EQ(back.params.threads, 3);
    EXPECT_EQ(back.params.seed, 7u);
    EXPECT_FALSE(back.params.warm_start);
    EXPECT_TRUE(back.params.heuristic_only);
    ASSERT_TRUE(back.model.has_value());
    EXPECT_EQ(model::canonical_hash(*back.model), model::canonical_hash(*req.model));
}

TEST(SvcProtocol, ControlRequestsRoundTrip) {
    for (const RequestKind kind :
         {RequestKind::Ping, RequestKind::Stats, RequestKind::Shutdown}) {
        Request req;
        req.kind = kind;
        req.id = 9;
        const Request back = parse_request(serialize_request(req));
        EXPECT_EQ(back.kind, kind);
        EXPECT_EQ(back.id, 9);
    }
}

TEST(SvcProtocol, SolveResponseRoundTrips) {
    Response r;
    r.id = 5;
    r.ok = true;
    r.status = cp::SolveStatus::Optimal;
    r.makespan = 11;
    r.slots_used = 4;
    r.start = {0, 1, 2};
    r.slot = {0, -1, 1};
    r.cache_hit = true;
    r.solve_ms = 12.0;
    r.model_hash = 0xdeadbeefcafef00dull;

    const Response back = parse_response(serialize_response(r));
    EXPECT_EQ(back.id, 5);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(back.makespan, 11);
    EXPECT_EQ(back.slots_used, 4);
    EXPECT_EQ(back.start, r.start);
    EXPECT_EQ(back.slot, r.slot);
    EXPECT_TRUE(back.cache_hit);
    EXPECT_FALSE(back.shed);
    EXPECT_EQ(back.model_hash, r.model_hash);
}

TEST(SvcProtocol, ErrorAndAckResponsesRoundTrip) {
    Response err;
    err.id = 1;
    err.ok = false;
    err.error = "bad \"model\"\nline";
    const Response err_back = parse_response(serialize_response(err));
    EXPECT_FALSE(err_back.ok);
    EXPECT_EQ(err_back.error, err.error);

    Response ack;
    ack.id = 2;
    ack.ok = true;
    ack.ack = true;
    const Response ack_back = parse_response(serialize_response(ack));
    EXPECT_TRUE(ack_back.ok);
    EXPECT_TRUE(ack_back.ack);
    EXPECT_FALSE(ack_back.has_schedule());
}

TEST(SvcProtocol, RejectsMalformedRequests) {
    EXPECT_THROW(parse_request("not json"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"frobnicate\"}"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"solve\",\"id\":1}"), Error);  // no model
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"options\":{\"threads\":0}}"),
                 Error);
    // Integer fields take integers a cast can hold, never a truncation.
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"id\":1.5}"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"id\":1e300}"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"deadline_ms\":-1e19}"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"options\":{\"threads\":2.5}}"),
                 Error);
    // Narrowed fields are range-checked against their own type, not int64:
    // 2^32 + 1 threads must not wrap to 1.
    EXPECT_THROW(
        parse_request("{\"kind\":\"ping\",\"options\":{\"threads\":4294967297}}"),
        Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"options\":{\"seed\":-1}}"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"options\":{\"seed\":4294967296}}"),
                 Error);
    EXPECT_EQ(
        parse_request("{\"kind\":\"ping\",\"options\":{\"seed\":4294967295}}").params.seed,
        4294967295u);
    EXPECT_EQ(parse_request("{\"kind\":\"ping\",\"id\":-7}").id, -7);
    // Every worker is a thread: a request may not ask for thousands. These
    // are rejected while the line is read, so no thread is started.
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"options\":{\"threads\":100000}}"),
                 Error);
    // A rid holds at most 16 hex digits: a 17th would shift the first one
    // out, and "10000000000000000" would read as 0, unset.
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"rid\":\"10000000000000000\"}"),
                 Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"rid\":\"0ffffffffffffffff\"}"),
                 Error);
    EXPECT_EQ(parse_request("{\"kind\":\"ping\",\"rid\":\"ffffffffffffffff\"}").rid,
              ~std::uint64_t{0});
}

TEST(SvcProtocol, CapsThreadsAtMaxWorkers) {
    const auto params = [](const std::string& options) {
        return parse_request("{\"kind\":\"ping\",\"options\":{" + options + "}}").params;
    };
    const std::string most = std::to_string(cp::kMaxWorkers);
    EXPECT_EQ(params("\"threads\":" + most).threads, cp::kMaxWorkers);
    EXPECT_THROW(params("\"threads\":" + std::to_string(cp::kMaxWorkers + 1)), Error);
    // An older client's LNS options are unknown keys now: read and skipped,
    // whatever their values.
    const SolveParams old =
        params("\"threads\":2,\"lns_workers\":100000,\"lns_relax_pct\":0");
    EXPECT_EQ(old.threads, 2);
}

/// A solve request line for `m` with every envelope and option field set.
std::string solve_line(const model::KernelModel& m) {
    Request req;
    req.kind = RequestKind::Solve;
    req.id = 42;
    req.rid = 0xabcdef0123456789ull;
    req.deadline_ms = 750;
    req.params.threads = 3;
    req.params.seed = 7;
    req.params.warm_start = false;
    req.params.heuristic_only = true;
    req.params.reuse = ReuseMode::Exact;
    req.model = m;
    return serialize_request(req);
}

void expect_same_request(const Request& got, const Request& want) {
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.rid, want.rid);
    EXPECT_EQ(got.deadline_ms, want.deadline_ms);
    EXPECT_EQ(got.params.threads, want.params.threads);
    EXPECT_EQ(got.params.seed, want.params.seed);
    EXPECT_EQ(got.params.warm_start, want.params.warm_start);
    EXPECT_EQ(got.params.heuristic_only, want.params.heuristic_only);
    EXPECT_EQ(got.params.reuse, want.params.reuse);
    ASSERT_EQ(got.model.has_value(), want.model.has_value());
    if (got.model) {
        EXPECT_TRUE(*got.model == *want.model);
    }
}

// Fields come in any order: the envelope, its options, the model and every
// node reversed (so the model comes before the kind) read
// as the same request, with the same content address.
TEST(SvcProtocol, ReadsFieldsInAnyOrder) {
    const model::KernelModel m = matmul_model();
    const std::string line = solve_line(m);
    json::Value doc = json::parse(line);
    const auto reverse = [](json::Value& obj) {
        std::reverse(obj.object.begin(), obj.object.end());
    };
    reverse(doc);
    for (auto& [key, value] : doc.object) {
        if (key == "options") reverse(value);
        if (key != "model") continue;
        reverse(value);
        for (auto& [mkey, mvalue] : value.object) {
            if (mkey == "nodes") {
                for (json::Value& elem : mvalue.array) reverse(elem);
            }
        }
    }
    const std::string reordered = json::to_compact_string(doc);
    ASSERT_EQ(reordered.rfind("{\"model\":{\"nodes\":[{\"persists\":", 0), 0u);
    const Request back = parse_request(reordered);
    expect_same_request(back, parse_request(line));
    EXPECT_EQ(model::canonical_hash(*back.model), model::canonical_hash(m));
}

// Of duplicate keys the first wins (a later one is skipped even when it is
// mistyped), in the envelope and in its options.
TEST(SvcProtocol, FirstDuplicateKeyWins) {
    const Request r = parse_request(
        "{\"kind\":\"ping\",\"id\":1,\"kind\":\"solve\",\"id\":\"x\","
        "\"options\":{\"threads\":2,\"threads\":0,\"reuse\":\"off\",\"reuse\":7},"
        "\"options\":5}");
    EXPECT_EQ(r.kind, RequestKind::Ping);
    EXPECT_EQ(r.id, 1);
    EXPECT_EQ(r.params.threads, 2);
    EXPECT_EQ(r.params.reuse, ReuseMode::Off);
}

// An unknown key is skipped whatever it holds, down to the reader's
// 256-level nesting bound (the envelope is the first level), and its
// syntax is still checked: json::parse agrees on every line.
TEST(SvcProtocol, SkipsUnknownKeysUpToTheNestingBound) {
    const auto line = [](std::size_t depth) {
        return "{\"kind\":\"ping\",\"junk\":" + std::string(depth, '[') + "{\"a\":1}" +
               std::string(depth, ']') + ",\"id\":3}";
    };
    EXPECT_EQ(parse_request(line(254)).id, 3);  // 255 levels below the envelope
    EXPECT_NO_THROW(json::parse(line(254)));
    EXPECT_THROW(parse_request(line(256)), Error);  // 257 levels below it
    EXPECT_THROW(json::parse(line(256)), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"junk\":[1,]}"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"junk\":\"\\q\"}"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"junk\":1e999}"), Error);
}

// Control characters in name, cat and op travel as \u00XX escapes and come
// back byte for byte; the hex digits' case does not move the content address.
TEST(SvcProtocol, EscapesInStringsSurviveByteExactly) {
    model::KernelModel m = matmul_model();
    m.name = std::string("k\x01 \x1f\r\"q\"\\", 9);
    m.config_keys.at(0) = std::string("c\x02\x7f", 3);
    m.nodes.at(1).op = std::string("o\x1e\n\t", 4);
    const std::string canonical = model::to_json(m);
    ASSERT_NE(canonical.find("\"k\\u0001 \\u001f\\u000d\\\"q\\\"\\\\\""),
              std::string::npos);
    const std::string line = solve_line(m);
    const Request back = parse_request(line);
    EXPECT_EQ(model::to_json(*back.model), canonical);
    EXPECT_EQ(back.model->name, m.name);
    EXPECT_EQ(back.model->config_keys.at(0), m.config_keys.at(0));
    EXPECT_EQ(back.model->nodes.at(1).op, m.nodes.at(1).op);

    std::string upper = line;
    const std::size_t at = upper.find("\\u001f");
    ASSERT_NE(at, std::string::npos);
    upper.replace(at, 6, "\\u001F");
    EXPECT_EQ(model::canonical_hash(*parse_request(upper).model), model::canonical_hash(m));
}

// A request that carries a model carries a valid one, whatever its kind:
// the model is read in place before the kind may be known. A valid model
// on a control request is read and dropped.
TEST(SvcProtocol, ControlRequestCarryingABadModelIsRejected) {
    for (const char* kind : {"ping", "stats", "shutdown"}) {
        const std::string head = std::string("{\"kind\":\"") + kind + "\",\"model\":";
        EXPECT_THROW(parse_request(head + "{}}"), Error) << kind;
        EXPECT_THROW(parse_request(head + "5}"), Error) << kind;
        const Request ok = parse_request(head + json::to_compact_string(json::parse(
                                                    model::to_json(matmul_model()))) +
                                         "}");
        EXPECT_FALSE(ok.model.has_value()) << kind;
    }
    EXPECT_THROW(parse_request("{\"kind\":\"solve\",\"model\":5}"), Error);
}

// A model whose timings leave [1, kMaxLatency] (ops) or [0, kMaxLatency]
// (data) is refused while the line is read, and the service answers
// ok:false: a MATMUL with op latency -3 was once served ok:true, optimal.
TEST(SvcProtocol, RefusesALatencyOrDurationOutsideTheCap) {
    const model::KernelModel clean = matmul_model();
    const int op = clean.ops.front();
    const int data = clean.vdata.front();
    struct Bad {
        int node;
        int latency;
        int duration;
    };
    const Bad cases[] = {
        {op, -3, 1},   {op, 0, 1},      {op, 1000000, 1}, {op, 7, 0},  {op, 7, -2},
        {op, 7, 1025}, {data, -1, 0}, {data, 1025, 0},  {data, 0, -1},
    };
    Service service(Service::Config{});
    for (const Bad& bad : cases) {
        model::KernelModel km = clean;
        km.nodes[static_cast<std::size_t>(bad.node)].latency = bad.latency;
        km.nodes[static_cast<std::size_t>(bad.node)].duration = bad.duration;
        Request req;
        req.kind = RequestKind::Solve;
        req.id = 1;
        req.model = km;
        const std::string line = serialize_request(req);
        EXPECT_THROW(parse_request(line), Error) << bad.latency << " " << bad.duration;
        const Response r = parse_response(service.handle_line(line));
        EXPECT_FALSE(r.ok) << bad.latency << " " << bad.duration;
        EXPECT_NE(r.error.find("outside ["), std::string::npos) << r.error;
    }
    Request fine;
    fine.kind = RequestKind::Solve;
    fine.id = 2;
    fine.model = clean;
    EXPECT_TRUE(parse_response(service.handle_line(serialize_request(fine))).ok);
}

// serialize_request copies the canonical text onto one line without a
// parse: byte-identical to the compact form of the parsed canonical text.
TEST(SvcProtocol, SerializeRequestMatchesTheCompactedCanonicalForm) {
    apps::RandomKernelOptions ko;
    ko.seed = 3;
    ko.num_ops = 12;
    model::KernelModel named = matmul_model();
    named.name = "a name with spaces,\t\"quotes\" and \\ {braces: [1, 2]}";
    const std::vector<model::KernelModel> models = {
        matmul_model(), lowered(apps::build_qrd()), lowered(apps::build_arf()),
        lowered(apps::build_random_kernel(ko)), named};
    for (const model::KernelModel& m : models) {
        Request req;
        req.kind = RequestKind::Solve;
        req.id = 5;
        const std::string bare = serialize_request(req);
        req.model = m;
        const std::string expected =
            bare.substr(0, bare.size() - 1) + ",\"model\":" +
            json::to_compact_string(json::parse(model::to_json(m))) + "}";
        EXPECT_EQ(serialize_request(req), expected) << m.name;
    }
}

// With a lookup, a model whose bytes the cache holds is not read: the
// line's tail is asked first, then the value's exact span when that differs
// (a model that is not the last field). Without a lookup, or on a miss, the
// span is kept as model_text.
TEST(SvcProtocol, LookupSparesTheReadOfACachedModel) {
    const model::KernelModel m = matmul_model();
    const std::string text = model_wire_text(m);
    const auto held = std::make_shared<const CacheEntry>(CacheEntry{text, 1, 2, m, {}});
    std::vector<std::string> asked;
    const ModelLookup lookup = [&](std::string_view bytes) {
        asked.emplace_back(bytes);
        return bytes == held->model_bytes ? held : nullptr;
    };
    const std::string line = solve_line(m);  // the model is the last field
    const Request cold = parse_request(line);
    EXPECT_EQ(cold.model_text, text);
    EXPECT_EQ(cold.cached, nullptr);

    const Request hit = parse_request(line + " \t", lookup);
    EXPECT_EQ(hit.cached, held);
    EXPECT_FALSE(hit.model.has_value());
    EXPECT_TRUE(hit.model_text.empty());
    EXPECT_EQ(asked, std::vector<std::string>{text});
    EXPECT_EQ(hit.id, 42);
    EXPECT_EQ(hit.rid, 0xabcdef0123456789ull);
    EXPECT_EQ(hit.params.threads, 3);
    EXPECT_EQ(hit.params.reuse, ReuseMode::Exact);

    asked.clear();
    const Request first = parse_request("{\"model\":" + text + ",\"kind\":\"solve\"}", lookup);
    EXPECT_EQ(first.cached, held);
    EXPECT_TRUE(first.model.has_value());  // read, then found
    ASSERT_EQ(asked.size(), 2u);           // the tail guess, then the span
    EXPECT_EQ(asked[1], text);

    asked.clear();
    model::KernelModel other = m;
    other.name = "other";
    const Request miss = parse_request(solve_line(other), lookup);
    EXPECT_EQ(miss.cached, nullptr);
    ASSERT_TRUE(miss.model.has_value());
    EXPECT_EQ(miss.model_text, model_wire_text(other));
    EXPECT_EQ(asked.size(), 1u);  // the span is the guess: asked once
}

TEST(SvcProtocol, RidRoundTripsAsSixteenHexDigits) {
    Request req;
    req.kind = RequestKind::Ping;
    req.id = 1;
    req.rid = 0x1234abcd5678ef09ull;
    const std::string wire = serialize_request(req);
    EXPECT_NE(wire.find("\"rid\":\"1234abcd5678ef09\""), std::string::npos);
    EXPECT_EQ(parse_request(wire).rid, req.rid);

    // Unset rid stays off the wire entirely — old clients and old daemons
    // keep interoperating byte for byte.
    req.rid = 0;
    EXPECT_EQ(serialize_request(req).find("\"rid\""), std::string::npos);
    EXPECT_EQ(parse_request(serialize_request(req)).rid, 0u);

    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"rid\":42}"), Error);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"rid\":\"xyz\"}"), Error);
}

TEST(SvcProtocol, ResponseCarriesRidAndFlightPath) {
    Response r;
    r.id = 3;
    r.rid = 0xfeedbeefull;
    r.ok = true;
    r.status = cp::SolveStatus::Optimal;
    r.flight = "/tmp/flight/flight-00000001-00000000feedbeef.jsonl";
    const Response back = parse_response(serialize_response(r));
    EXPECT_EQ(back.rid, r.rid);
    EXPECT_EQ(back.flight, r.flight);

    r.rid = 0;
    r.flight.clear();
    const std::string wire = serialize_response(r);
    EXPECT_EQ(wire.find("\"rid\""), std::string::npos);
    EXPECT_EQ(wire.find("\"flight\""), std::string::npos);
}

TEST(SvcProtocol, ResponseFieldsComeInAnyOrderAndOkDecidesWhatIsRead) {
    // Any field order, unknown keys skipped (their syntax still checked).
    const Response solve = parse_response(
        "{\"hash\":\"00000000000000ff\",\"cache\":\"near\",\"start\":[0,2],"
        "\"future\":{\"x\":[1,{}]},\"slot\":[1,-1],\"makespan\":4,\"slots_used\":1,"
        "\"status\":\"optimal\",\"shed\":false,\"solve_ms\":3,\"ok\":true,\"id\":7}");
    EXPECT_TRUE(solve.ok);
    EXPECT_EQ(solve.id, 7);
    EXPECT_EQ(solve.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(solve.makespan, 4);
    EXPECT_EQ(solve.slots_used, 1);
    EXPECT_EQ(solve.start, (std::vector<int>{0, 2}));
    EXPECT_EQ(solve.slot, (std::vector<int>{1, -1}));
    EXPECT_TRUE(solve.near_hit);
    EXPECT_FALSE(solve.cache_hit);
    EXPECT_EQ(solve.solve_ms, 3.0);
    EXPECT_EQ(solve.model_hash, 0xffu);

    // ok:false ignores every other field, even malformed ones before it.
    const Response error = parse_response(
        "{\"makespan\":\"x\",\"start\":7,\"ack\":\"yes\",\"ok\":false,"
        "\"error\":\"boom\",\"id\":2}");
    EXPECT_FALSE(error.ok);
    EXPECT_EQ(error.error, "boom");
    EXPECT_EQ(error.id, 2);
    EXPECT_FALSE(error.ack);
    EXPECT_EQ(error.makespan, 0);

    // So does an ack, and a metrics document keeps only its compact text.
    const Response ack =
        parse_response("{\"makespan\":1.5,\"status\":\"nope\",\"ok\":true,\"ack\":true}");
    EXPECT_TRUE(ack.ack);
    EXPECT_EQ(ack.makespan, 0);
    const Response stats = parse_response(
        "{\"metrics\": {\"counters\": {\"a\": 1}}, \"makespan\":\"x\", \"ok\": true}");
    EXPECT_EQ(stats.metrics_json, "{\"counters\":{\"a\":1}}");

    // ok is a required boolean, and an ok response's fields are typed.
    EXPECT_THROW(parse_response("{\"id\":1}"), Error);
    EXPECT_THROW(parse_response("{\"ok\":\"true\"}"), Error);
    EXPECT_THROW(parse_response("{\"ok\":true,\"makespan\":1.5}"), Error);
    EXPECT_THROW(parse_response("{\"ok\":true,\"ack\":\"yes\"}"), Error);
    EXPECT_THROW(parse_response("{\"ok\":true,\"start\":[1,\"2\"]}"), Error);
    EXPECT_THROW(parse_response("{\"ok\":true,\"status\":\"nope\"}"), Error);
    // rid and hash hold at most 16 hex digits, on any response.
    EXPECT_THROW(parse_response("{\"ok\":true,\"hash\":\"10000000000000000\"}"), Error);
    EXPECT_THROW(parse_response("{\"ok\":true,\"rid\":\"10000000000000000\"}"), Error);
    EXPECT_THROW(parse_response("{\"ok\":false,\"rid\":\"0ffffffffffffffff\"}"), Error);
    EXPECT_EQ(parse_response("{\"ok\":true,\"hash\":\"ffffffffffffffff\"}").model_hash,
              ~std::uint64_t{0});
    // The whole line's syntax is checked, whatever ok says.
    EXPECT_THROW(parse_response("{\"ok\":false,\"x\":}"), Error);
    EXPECT_THROW(parse_response("[true]"), Error);
}

/// A cache entry with an empty model: the cache never reads the model,
/// only hands it out.
CacheEntry entry(std::string bytes, int makespan, std::uint64_t fingerprint = 99,
                 std::uint64_t model_hash = 0) {
    return CacheEntry{std::move(bytes), model_hash, fingerprint, model::KernelModel{},
                      CachedSchedule{{0, 1}, {0, -1}, makespan, 1}};
}

TEST(SvcCache, MissThenHitThenExactMatchGuard) {
    ScheduleCache cache(4);
    EXPECT_EQ(cache.find("modelA"), nullptr);
    cache.insert(entry("modelA", 2));
    const auto hit = cache.find("modelA");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->schedule.makespan, 2);
    EXPECT_EQ(hit->schedule.start, (std::vector<int>{0, 1}));
    // The key is the bytes: any other text, even one byte longer, misses
    // and leaves the resident entry alone.
    EXPECT_EQ(cache.find("modelB"), nullptr);
    EXPECT_EQ(cache.find("modelA "), nullptr);
    EXPECT_EQ(cache.find("model"), nullptr);
    EXPECT_NE(cache.find("modelA"), nullptr);
}

// The byte key replaces the FNV key: two models whose canonical hashes
// collide, or two texts of one model, are two entries side by side.
TEST(SvcCache, EqualModelHashesWithDifferentBytesCoexist) {
    ScheduleCache cache(4);
    EXPECT_FALSE(cache.insert(entry("{\"a\":1}", 3, 99, /*model_hash=*/7)));
    EXPECT_FALSE(cache.insert(entry("{ \"a\": 1 }", 4, 99, /*model_hash=*/7)));
    EXPECT_EQ(cache.size(), 2u);
    const auto compact = cache.find("{\"a\":1}");
    const auto spaced = cache.find("{ \"a\": 1 }");
    ASSERT_NE(compact, nullptr);
    ASSERT_NE(spaced, nullptr);
    EXPECT_EQ(compact->schedule.makespan, 3);
    EXPECT_EQ(spaced->schedule.makespan, 4);
    EXPECT_EQ(compact->model_hash, spaced->model_hash);
}

TEST(SvcCache, OneInsertServesBothLookups) {
    ScheduleCache cache(4);
    cache.insert(entry("a", 3, /*fingerprint=*/50));
    cache.insert(entry("b", 4, /*fingerprint=*/50));
    cache.insert(entry("c", 5, /*fingerprint=*/60));
    EXPECT_EQ(cache.size(), 3u);
    const auto exact = cache.find("a");
    ASSERT_NE(exact, nullptr);
    const auto donors = cache.lookup_near(50);
    ASSERT_EQ(donors.size(), 2u);
    // The donor lookup hands out the very entry the exact lookup serves.
    EXPECT_TRUE(std::find(donors.begin(), donors.end(), exact) != donors.end());
    EXPECT_EQ(cache.lookup_near(60).size(), 1u);
    EXPECT_TRUE(cache.lookup_near(70).empty());
}

TEST(SvcCache, EvictsLeastRecentlyUsed) {
    ScheduleCache cache(2);
    EXPECT_FALSE(cache.insert(entry("a", 1)));
    EXPECT_FALSE(cache.insert(entry("b", 2)));
    // find is a pure read: "a" stays the least recently used and goes.
    EXPECT_NE(cache.find("a"), nullptr);
    EXPECT_TRUE(cache.insert(entry("c", 3)));
    EXPECT_EQ(cache.find("a"), nullptr);
    // Serving "b" (touch) makes "c" the victim of the next insert.
    cache.touch(cache.find("b"));
    EXPECT_TRUE(cache.insert(entry("d", 4)));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 2);
    EXPECT_NE(cache.find("b"), nullptr);
    EXPECT_EQ(cache.find("c"), nullptr);
    EXPECT_NE(cache.find("d"), nullptr);
}

TEST(SvcCache, EvictionLeavesBothIndexes) {
    ScheduleCache cache(2);
    cache.insert(entry("a", 1, /*fingerprint=*/10));
    cache.insert(entry("b", 2, /*fingerprint=*/20));
    // A donor lookup is a use too: it makes "a" the most recent, so "b" goes.
    ASSERT_EQ(cache.lookup_near(10).size(), 1u);
    EXPECT_TRUE(cache.insert(entry("c", 3, /*fingerprint=*/10)));
    EXPECT_EQ(cache.find("b"), nullptr);
    EXPECT_TRUE(cache.lookup_near(20).empty());
    EXPECT_EQ(cache.lookup_near(10).size(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1);
}

TEST(SvcCache, SameBytesReinsertReplacesInPlace) {
    ScheduleCache cache(2);
    cache.insert(entry("a", 5, /*fingerprint=*/10));
    const auto old = cache.find("a");
    ASSERT_NE(old, nullptr);
    // The same bytes again replace the entry, in both indexes, without
    // growing the cache.
    EXPECT_FALSE(cache.insert(entry("a", 4, /*fingerprint=*/20)));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 0);
    const auto fresh = cache.find("a");
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh->schedule.makespan, 4);
    EXPECT_TRUE(cache.lookup_near(10).empty());
    ASSERT_EQ(cache.lookup_near(20).size(), 1u);
    // A reader holding the old snapshot keeps a consistent view, and
    // touching it moves nothing: "a" stays older than "b" and goes first.
    EXPECT_EQ(old->model_bytes, "a");
    EXPECT_EQ(old->schedule.makespan, 5);
    cache.insert(entry("b", 6));
    cache.touch(old);
    EXPECT_TRUE(cache.insert(entry("c", 7)));
    EXPECT_EQ(cache.find("a"), nullptr);
    EXPECT_NE(cache.find("b"), nullptr);
}

TEST(SvcCache, ZeroCapacityDisablesCaching) {
    ScheduleCache cache(0);
    EXPECT_FALSE(cache.insert(entry("a", 1)));
    EXPECT_EQ(cache.find("a"), nullptr);
    EXPECT_TRUE(cache.lookup_near(99).empty());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(SvcPool, RunsJobsAndCounts) {
    SolverPool pool(SolverPool::Config{2, 8, nullptr});
    std::atomic<int> ran{0};
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(pool.try_submit([&ran](obs::TraceBuffer*) { ++ran; }));
    }
    // The destructor drains the queue before joining.
    { SolverPool drained(SolverPool::Config{1, 8, nullptr}); }
    while (pool.completed() < 6) std::this_thread::yield();
    EXPECT_EQ(ran.load(), 6);
}

TEST(SvcPool, ShedsWhenQueueFull) {
    SolverPool pool(SolverPool::Config{1, 1, nullptr});
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;

    // Occupy the single worker until released.
    ASSERT_TRUE(pool.try_submit([&](obs::TraceBuffer*) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
    }));
    // One slot queues; wait until the blocker is actually running so the
    // queue state is deterministic.
    while (pool.queue_depth() > 0 && pool.completed() == 0) std::this_thread::yield();
    ASSERT_TRUE(pool.try_submit([](obs::TraceBuffer*) {}));
    EXPECT_FALSE(pool.try_submit([](obs::TraceBuffer*) {}));  // queue full: shed
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
}

}  // namespace
}  // namespace revec::svc
