// Service-level behaviour: the revecd core answers every admitted request
// with a verify-clean schedule, serves exact repeats from the cache
// without re-solving (asserted both through svc.cache.hit and through the
// absence of new "search" spans), matches the standalone schedule_kernel
// result bit for bit, and sheds to the verified heuristic answer when the
// deadline or the queue cannot fit a full solve.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/model/json.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"
#include "revec/svc/service.hpp"

namespace revec::svc {
namespace {

model::KernelModel lowered(const ir::Graph& g) {
    return sched::lower_for_schedule(g, sched::ScheduleOptions{});
}

model::KernelModel matmul_model() {
    return lowered(ir::merge_pipeline_ops(apps::build_matmul()));
}

/// A 20-op random kernel whose heuristic makespan (27) misses the makespan
/// lower bound (24): unlike the paper kernels, its warm solve searches.
model::KernelModel searched_model() {
    apps::RandomKernelOptions kopts;
    kopts.seed = 15;
    kopts.num_ops = 20;
    return lowered(ir::merge_pipeline_ops(apps::build_random_kernel(kopts)));
}

Request solve_request(model::KernelModel km, std::int64_t id,
                      std::int64_t deadline_ms = -1) {
    Request req;
    req.kind = RequestKind::Solve;
    req.id = id;
    req.deadline_ms = deadline_ms;
    req.model = std::move(km);
    return req;
}

std::int64_t counter(const Service& service, const std::string& name) {
    const json::Value doc = json::parse(service.metrics_json());
    const json::Value* counters = doc.find("counters");
    if (counters == nullptr) return 0;
    const json::Value* v = counters->find(name);
    return v == nullptr ? 0 : static_cast<std::int64_t>(v->number);
}

/// Count "search" span-begin events across the sink's serialized stream —
/// one per exact-solver invocation, zero for cache hits and shed answers.
std::int64_t search_spans(const obs::TraceSink& sink) {
    std::ostringstream os;
    sink.write_jsonl(os);
    const std::string text = os.str();
    std::int64_t n = 0;
    const std::string needle = "\"name\": \"search\"";
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

void expect_verify_clean(const model::KernelModel& km, const Response& r) {
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.has_schedule());
    EXPECT_TRUE(model::check_schedule(km, r.start, r.slot, r.makespan).empty());
}

TEST(SvcService, RepeatIsServedFromCacheWithoutResolving) {
    obs::TraceSink sink(obs::TraceLevel::Phase);
    Service::Config config;
    config.trace = &sink;
    Service service(config);
    const model::KernelModel km = searched_model();

    const Response first = service.handle(solve_request(km, 1));
    expect_verify_clean(km, first);
    EXPECT_EQ(first.status, cp::SolveStatus::Optimal);
    EXPECT_FALSE(first.cache_hit);
    const std::int64_t spans_after_first = search_spans(sink);
    EXPECT_GT(spans_after_first, 0);

    const Response second = service.handle(solve_request(km, 2));
    expect_verify_clean(km, second);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(second.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(second.start, first.start);
    EXPECT_EQ(second.slot, first.slot);
    EXPECT_EQ(second.makespan, first.makespan);
    EXPECT_EQ(second.model_hash, first.model_hash);

    // The hit never touched a solver: no new search span appeared.
    EXPECT_EQ(search_spans(sink), spans_after_first);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 1);
    EXPECT_EQ(counter(service, "svc.cache.miss"), 1);
}

// The byte path (DESIGN §5i): handle_line asks the cache while it reads
// the line, and a model whose bytes the cache holds is never read.

/// A service that solved `km` once from its wire line; returns that answer.
Response warm(Service& service, const model::KernelModel& km) {
    const Response r = parse_response(service.handle_line(serialize_request(solve_request(km, 1))));
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(r.status, cp::SolveStatus::Optimal);
    return r;
}

TEST(SvcService, RepeatedLineIsServedWithoutReadingItsModel) {
    Service service(Service::Config{});
    const model::KernelModel km = matmul_model();
    const Response first = warm(service, km);
    const Response again =
        parse_response(service.handle_line(serialize_request(solve_request(km, 2))));
    expect_verify_clean(km, again);
    EXPECT_TRUE(again.cache_hit);
    EXPECT_EQ(again.id, 2);
    EXPECT_EQ(again.model_hash, first.model_hash);
    EXPECT_EQ(again.model_hash, model::canonical_hash(km));
    EXPECT_EQ(again.start, first.start);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 1);
    EXPECT_EQ(counter(service, "svc.cache.hit_unread"), 1);
    // A request built in code is keyed on the bytes serialize_request
    // sends, so it finds the same entry (reading its model is its own).
    EXPECT_TRUE(service.handle(solve_request(km, 3)).cache_hit);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 2);
    EXPECT_EQ(counter(service, "svc.cache.hit_unread"), 1);
}

TEST(SvcService, CachedModelBytesDoNotExcuseABadEnvelope) {
    Service service(Service::Config{});
    const model::KernelModel km = matmul_model();
    warm(service, km);
    const std::string line = serialize_request(solve_request(km, 2));
    const std::string bad[] = {
        line + ",",                                // ...}},
        line + " x",                               // ...}} x
        line + " }",                               // ...}} }
        line.substr(0, line.size() - 1),           // the envelope never closes
        line.substr(0, line.size() - 1) + "]",     // ...}]
        line.substr(0, line.size() - 1) + ",}",    // ...},}
    };
    for (const std::string& l : bad) {
        const Response r = parse_response(service.handle_line(l));
        EXPECT_FALSE(r.ok) << l.substr(l.size() - 8);
        EXPECT_THROW(parse_request(l), Error);
    }
    EXPECT_EQ(counter(service, "svc.req.parse_errors"), 6);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 0);
    // Trailing whitespace is no fault.
    EXPECT_TRUE(parse_response(service.handle_line(line + " \t\r")).cache_hit);
    EXPECT_EQ(counter(service, "svc.cache.hit_unread"), 1);
}

TEST(SvcService, ReuseOffAroundACachedModelIsSolvedNotServed) {
    Service service(Service::Config{});
    const model::KernelModel km = matmul_model();
    const Response first = warm(service, km);
    const std::string text = model_wire_text(km);
    // Off after the model (which is read, then found) and before it (the
    // cache answers the read): solved either way, from the same model.
    const std::string lines[] = {
        "{\"kind\":\"solve\",\"id\":2,\"model\":" + text + ",\"options\":{\"reuse\":\"off\"}}",
        "{\"kind\":\"solve\",\"id\":3,\"options\":{\"reuse\":\"off\"},\"model\":" + text + "}",
    };
    for (const std::string& line : lines) {
        const Response r = parse_response(service.handle_line(line));
        expect_verify_clean(km, r);
        EXPECT_FALSE(r.cache_hit);
        EXPECT_FALSE(r.near_hit);
        EXPECT_EQ(r.status, cp::SolveStatus::Optimal);
        EXPECT_EQ(r.model_hash, first.model_hash);
        EXPECT_EQ(r.start, first.start);
    }
    EXPECT_EQ(counter(service, "svc.cache.hit"), 0);
    EXPECT_EQ(counter(service, "svc.cache.miss"), 3);
    // The cold solves replaced the entry under the same bytes.
    EXPECT_TRUE(service.handle(solve_request(km, 4)).cache_hit);
}

TEST(SvcService, ModelThatIsNotTheLastFieldStillHits) {
    Service service(Service::Config{});
    const model::KernelModel km = matmul_model();
    const Response first = warm(service, km);
    const Response r = parse_response(service.handle_line(
        "{\"model\":" + model_wire_text(km) + ",\"kind\":\"solve\",\"id\":4}"));
    expect_verify_clean(km, r);
    EXPECT_TRUE(r.cache_hit);
    EXPECT_EQ(r.model_hash, first.model_hash);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 1);
    EXPECT_EQ(counter(service, "svc.cache.hit_unread"), 0);  // it was read
}

TEST(SvcService, FirstOfDuplicateModelKeysWins) {
    Service service(Service::Config{});
    const model::KernelModel mm = matmul_model();
    const model::KernelModel qrd = lowered(ir::merge_pipeline_ops(apps::build_qrd()));
    const Response first = warm(service, mm);
    const std::string head = "{\"kind\":\"solve\",\"id\":5,\"model\":";
    // The cached model first: served, the second is skipped unread.
    const Response hit = parse_response(service.handle_line(
        head + model_wire_text(mm) + ",\"model\":" + model_wire_text(qrd) + "}"));
    expect_verify_clean(mm, hit);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.model_hash, first.model_hash);
    // The cached model second: the first is solved.
    const Response miss = parse_response(service.handle_line(
        head + model_wire_text(qrd) + ",\"model\":" + model_wire_text(mm) + "}"));
    expect_verify_clean(qrd, miss);
    EXPECT_FALSE(miss.cache_hit);
    EXPECT_EQ(miss.model_hash, model::canonical_hash(qrd));
    EXPECT_EQ(counter(service, "svc.cache.hit"), 1);
    EXPECT_EQ(counter(service, "svc.cache.miss"), 2);
}

TEST(SvcService, ControlRequestCarryingCachedModelBytesIsAcked) {
    Service service(Service::Config{});
    const model::KernelModel km = matmul_model();
    warm(service, km);
    const Response ping = parse_response(service.handle_line(
        "{\"kind\":\"ping\",\"id\":6,\"model\":" + model_wire_text(km) + "}"));
    EXPECT_TRUE(ping.ok) << ping.error;
    EXPECT_TRUE(ping.ack);
    EXPECT_EQ(ping.id, 6);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 0);
    EXPECT_EQ(counter(service, "svc.req.count"), 1);  // the warm-up solve only
}

TEST(SvcService, MatchesStandaloneSolveBitForBit) {
    Service service(Service::Config{});
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    sched::ScheduleOptions opts;
    opts.timeout_ms = 60000;
    const sched::Schedule standalone = sched::schedule_kernel(g, opts);

    const Response served =
        service.handle(solve_request(sched::lower_for_schedule(g, opts), 1, 60000));
    ASSERT_TRUE(served.ok) << served.error;
    EXPECT_EQ(served.status, standalone.status);
    EXPECT_EQ(served.makespan, standalone.makespan);
    EXPECT_EQ(served.slots_used, standalone.slots_used);
    EXPECT_EQ(served.start, standalone.start);
    EXPECT_EQ(served.slot, standalone.slot);
}

TEST(SvcService, ZeroDeadlineShedsToVerifiedHeuristic) {
    Service service(Service::Config{});
    const model::KernelModel km = matmul_model();
    const Response r = service.handle(solve_request(km, 1, /*deadline_ms=*/0));
    expect_verify_clean(km, r);
    EXPECT_TRUE(r.shed);
    EXPECT_EQ(r.status, cp::SolveStatus::HeuristicFallback);
    EXPECT_EQ(counter(service, "svc.queue.shed"), 1);
    // Shed answers must not poison the cache with a non-optimal schedule.
    const Response again = service.handle(solve_request(km, 2, 0));
    EXPECT_FALSE(again.cache_hit);
}

TEST(SvcService, SaturatedPoolShedsEveryRequestVerifyClean) {
    // max_queue = 0 models a permanently saturated pool: nothing is ever
    // admitted, so 100% of requests must still get a verify-clean
    // HeuristicFallback answer.
    Service::Config config;
    config.pool_workers = 1;
    config.max_queue = 0;
    Service service(config);
    const model::KernelModel km = matmul_model();
    for (int i = 0; i < 3; ++i) {
        const Response r = service.handle(solve_request(km, i, 500));
        expect_verify_clean(km, r);
        EXPECT_TRUE(r.shed);
        EXPECT_EQ(r.status, cp::SolveStatus::HeuristicFallback);
    }
    EXPECT_EQ(counter(service, "svc.queue.shed"), 3);
    EXPECT_EQ(counter(service, "svc.queue.admitted"), 0);
}

TEST(SvcService, DistinctModelsGetDistinctCacheEntries) {
    Service service(Service::Config{});
    const model::KernelModel mm = matmul_model();
    const model::KernelModel qrd = lowered(ir::merge_pipeline_ops(apps::build_qrd()));

    const Response r1 = service.handle(solve_request(mm, 1));
    const Response r2 = service.handle(solve_request(qrd, 2));
    ASSERT_TRUE(r1.ok && r2.ok);
    EXPECT_NE(r1.model_hash, r2.model_hash);
    EXPECT_TRUE(service.handle(solve_request(mm, 3)).cache_hit);
    EXPECT_TRUE(service.handle(solve_request(qrd, 4)).cache_hit);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 2);
}

TEST(SvcService, StatsPingShutdownAndErrors) {
    Service service(Service::Config{});
    EXPECT_FALSE(service.shutdown_requested());

    const std::string pong = service.handle_line("{\"kind\":\"ping\",\"id\":7}");
    const Response ping = parse_response(pong);
    EXPECT_TRUE(ping.ok);
    EXPECT_TRUE(ping.ack);
    EXPECT_EQ(ping.id, 7);

    const Response bad = parse_response(service.handle_line("{\"kind\":\"solve\"}"));
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());
    const Response garbage = parse_response(service.handle_line("not json at all"));
    EXPECT_FALSE(garbage.ok);

    const Response stats =
        parse_response(service.handle_line("{\"kind\":\"stats\",\"id\":1}"));
    ASSERT_TRUE(stats.ok);
    ASSERT_FALSE(stats.metrics_json.empty());
    const json::Value doc = json::parse(stats.metrics_json);
    ASSERT_TRUE(doc.find("counters") != nullptr);
    EXPECT_TRUE(doc.find("counters")->find("svc.req.parse_errors") != nullptr);

    const Response down =
        parse_response(service.handle_line("{\"kind\":\"shutdown\",\"id\":2}"));
    EXPECT_TRUE(down.ok);
    EXPECT_TRUE(down.ack);
    EXPECT_TRUE(service.shutdown_requested());
}

TEST(SvcService, ModuloWrappedModelAnswersErrorAndServiceKeepsServing) {
    // A solve request for a modulo-wrapped model used to throw out of the
    // pool worker (std::out_of_range in schedule extraction) and abort the
    // process. It must answer ok:false, on the solve and the shed path, and
    // the next request must be served.
    Service service(Service::Config{});
    model::KernelModel wrapped = matmul_model();
    wrapped.modulo = model::ModuloWrap{4, 3, true, 8};

    const Response bad = service.handle(solve_request(wrapped, 1));
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());
    EXPECT_FALSE(bad.has_schedule());
    const Response shed = service.handle(solve_request(wrapped, 2, /*deadline_ms=*/0));
    EXPECT_FALSE(shed.ok);

    const model::KernelModel km = matmul_model();
    const Response next = service.handle(solve_request(km, 3));
    expect_verify_clean(km, next);
    EXPECT_EQ(next.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(counter(service, "svc.req.errors"), 2);
}

TEST(SvcService, ModelClaimingMoreSlotsThanItsMemoryIsAParseError) {
    // A cold solve of such a model used to fail a CP engine precondition;
    // the model reader refuses it, so the request answers ok:false with
    // the reader's message and the service keeps serving.
    Service service(Service::Config{});
    model::KernelModel huge = matmul_model();
    huge.num_slots = 100000000;
    const Response bad =
        parse_response(service.handle_line(serialize_request(solve_request(huge, 1))));
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("num_slots exceeds the geometry's slots"), std::string::npos)
        << bad.error;
    EXPECT_FALSE(bad.has_schedule());
    EXPECT_EQ(counter(service, "svc.req.parse_errors"), 1);

    const model::KernelModel km = matmul_model();
    expect_verify_clean(
        km, parse_response(service.handle_line(serialize_request(solve_request(km, 2)))));
}

TEST(SvcService, RidIsEchoedAndAssignedWhenAbsent) {
    Service service(Service::Config{});
    const model::KernelModel km = matmul_model();

    Request with_rid = solve_request(km, 1);
    with_rid.rid = 0xabcdefull;
    EXPECT_EQ(service.handle(with_rid).rid, 0xabcdefull);

    // No client rid: the service assigns one so the request is still
    // correlatable end to end.
    const Response assigned = service.handle(solve_request(km, 2));
    EXPECT_NE(assigned.rid, 0u);

    // Control requests echo without assigning.
    Request ping;
    ping.kind = RequestKind::Ping;
    ping.id = 3;
    EXPECT_EQ(service.handle(ping).rid, 0u);
}

TEST(SvcService, ShedRequestDumpsFlightRecordingEvenWithTracingOff) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "svc_flight_shed";
    fs::remove_all(dir);

    Service::Config config;  // config.trace stays null: --trace-level=off
    config.flight.dir = dir.string();
    Service service(config);
    const model::KernelModel km = matmul_model();

    Request req = solve_request(km, 1, /*deadline_ms=*/0);
    req.rid = 0x5eedf00dull;
    const Response r = service.handle(req);
    expect_verify_clean(km, r);
    ASSERT_TRUE(r.shed);

    // The shed made the request interesting: its ring was dumped and the
    // response points at the file.
    ASSERT_FALSE(r.flight.empty()) << "shed request should dump a flight recording";
    ASSERT_TRUE(fs::exists(r.flight));
    EXPECT_EQ(counter(service, "svc.flight.recorded"), 1);
    EXPECT_EQ(counter(service, "svc.flight.dump"), 1);
    EXPECT_EQ(counter(service, "svc.flight.reason.shed"), 1);

    // The dump is a valid trace and carries the rid end to end: on the
    // request span, the solve span, and the flight_begin stamp.
    const obs::ParsedTrace trace = obs::load_trace(r.flight);
    EXPECT_TRUE(obs::validate_trace(trace).empty());
    bool request_span_rid = false;
    bool solve_span_rid = false;
    bool shed_instant = false;
    for (const obs::ParsedTrack& track : trace.tracks) {
        for (const obs::ParsedEvent& e : track.events) {
            const auto rid = e.args.find("rid");
            const bool has_rid =
                rid != e.args.end() && rid->second == 0x5eedf00d;
            if (e.kind == 'B' && e.name == "svc.request" && has_rid) {
                request_span_rid = true;
            }
            if (e.kind == 'B' && e.name == "svc.solve" && has_rid) {
                solve_span_rid = true;
            }
            if (e.kind == 'I' && e.name == "svc.shed") shed_instant = true;
        }
    }
    EXPECT_TRUE(request_span_rid);
    EXPECT_TRUE(solve_span_rid);
    EXPECT_TRUE(shed_instant);
    fs::remove_all(dir);
}

TEST(SvcService, UninterestingRequestsAreRecordedButNotDumped) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "svc_flight_drop";
    fs::remove_all(dir);

    Service::Config config;
    config.flight.dir = dir.string();  // slo_ms = -1: latency never dumps
    Service service(config);
    const model::KernelModel km = matmul_model();

    const Response miss = service.handle(solve_request(km, 1));
    const Response hit = service.handle(solve_request(km, 2));
    ASSERT_TRUE(miss.ok && hit.ok);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_TRUE(miss.flight.empty());
    EXPECT_TRUE(hit.flight.empty());
    EXPECT_EQ(counter(service, "svc.flight.recorded"), 2);
    EXPECT_EQ(counter(service, "svc.flight.drop"), 2);
    EXPECT_EQ(counter(service, "svc.flight.dump"), 0);
    fs::remove_all(dir);
}

TEST(SvcService, ZeroSloDumpsEveryRequestWithLatencyReason) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "svc_flight_slo";
    fs::remove_all(dir);

    Service::Config config;
    config.flight.dir = dir.string();
    config.flight.slo_ms = 0;  // everything is over-SLO
    Service service(config);
    const model::KernelModel km = matmul_model();

    const Response r = service.handle(solve_request(km, 1));
    ASSERT_TRUE(r.ok);
    ASSERT_FALSE(r.flight.empty());
    EXPECT_EQ(counter(service, "svc.flight.reason.slo"), 1);
    const obs::ParsedTrace trace = obs::load_trace(r.flight);
    EXPECT_TRUE(obs::validate_trace(trace).empty());
    fs::remove_all(dir);
}

TEST(SvcService, HeuristicOnlyRequestSkipsExactSearch) {
    obs::TraceSink sink(obs::TraceLevel::Phase);
    Service::Config config;
    config.trace = &sink;
    Service service(config);
    const model::KernelModel km = matmul_model();
    Request req = solve_request(km, 1);
    req.params.heuristic_only = true;
    const Response r = service.handle(req);
    expect_verify_clean(km, r);
    EXPECT_EQ(r.status, cp::SolveStatus::HeuristicFallback);
    EXPECT_FALSE(r.shed);  // admitted, not shed: the caller asked for this mode
    EXPECT_EQ(search_spans(sink), 0);
}

}  // namespace
}  // namespace revec::svc
