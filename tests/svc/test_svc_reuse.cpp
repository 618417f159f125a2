// The tier-2 reuse pipeline end to end (DESIGN §5k): an edited model warm-
// starts from an adapted donor (response cache:"near", svc.cache.near_hit
// and svc.reuse.adapted counted), the served schedule is verifier-clean
// and as good as a cold solve, --reuse=exact|off disables the pipeline, a
// shed request skips it, and the exact-hit path is bit-for-bit untouched
// by all of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "revec/apps/matmul.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/model/fingerprint.hpp"
#include "revec/model/json.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/json.hpp"
#include "revec/svc/service.hpp"

namespace revec::svc {
namespace {

model::KernelModel matmul_model() {
    return sched::lower_for_schedule(ir::merge_pipeline_ops(apps::build_matmul()),
                                     sched::ScheduleOptions{});
}

/// One-op latency edit (downward, so the stale horizon stays valid), edge
/// latencies kept in lockstep — the edit stream's canonical request shape.
model::KernelModel edited(const model::KernelModel& base) {
    model::KernelModel m = base;
    int op = -1;
    for (const int candidate : m.ops) {
        if (m.node(candidate).latency > 1) {
            op = candidate;
            break;
        }
    }
    EXPECT_GE(op, 0);
    const int latency = m.node(op).latency - 1;
    m.nodes[static_cast<std::size_t>(op)].latency = latency;
    for (model::ModelEdge& e : m.edges) {
        if (e.src == op) e.latency = latency;
    }
    return m;
}

Request solve_request(model::KernelModel km, std::int64_t id,
                      ReuseMode reuse = ReuseMode::Near) {
    Request req;
    req.kind = RequestKind::Solve;
    req.id = id;
    req.deadline_ms = 60000;
    req.params.reuse = reuse;
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

TEST(SvcReuse, EditedModelWarmStartsFromAdaptedDonor) {
    Service service(Service::Config{});
    const model::KernelModel base = matmul_model();
    const model::KernelModel variant = edited(base);
    ASSERT_EQ(model::structural_fingerprint(base),
              model::structural_fingerprint(variant));
    ASSERT_NE(model::canonical_hash(base), model::canonical_hash(variant));

    const Response cold = service.handle(solve_request(base, 1));
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_EQ(cold.status, cp::SolveStatus::Optimal);
    EXPECT_FALSE(cold.near_hit);

    const Response warm = service.handle(solve_request(variant, 2));
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.status, cp::SolveStatus::Optimal);
    EXPECT_TRUE(warm.near_hit);
    EXPECT_FALSE(warm.cache_hit);
    EXPECT_TRUE(
        model::check_schedule(variant, warm.start, warm.slot, warm.makespan).empty());

    // The warm solve is still exact: same optimum a standalone solve finds.
    sched::ModelSolveOptions mo;
    mo.timeout_ms = 60000;
    const sched::Schedule standalone = sched::schedule_model(variant, mo);
    ASSERT_EQ(standalone.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(warm.makespan, standalone.makespan);

    EXPECT_EQ(counter(service, "svc.cache.hit"), 0);
    EXPECT_EQ(counter(service, "svc.cache.miss"), 2);  // both tier-1 misses
    EXPECT_EQ(counter(service, "svc.cache.near_hit"), 1);
    EXPECT_EQ(counter(service, "svc.reuse.adapted"), 1);
    EXPECT_EQ(counter(service, "svc.reuse.adapt_rejected"), 0);
    EXPECT_EQ(counter(service, "svc.cache.verify_fail"), 0);
}

TEST(SvcReuse, NearHitRoundTripsOnTheWire) {
    Response r;
    r.id = 3;
    r.ok = true;
    r.status = cp::SolveStatus::Optimal;
    r.makespan = 9;
    r.start = {0, 1};
    r.slot = {-1, 0};
    r.near_hit = true;
    const std::string line = serialize_response(r);
    EXPECT_NE(line.find("\"cache\":\"near\""), std::string::npos);
    const Response back = parse_response(line);
    EXPECT_TRUE(back.near_hit);
    EXPECT_FALSE(back.cache_hit);
}

TEST(SvcReuse, ReuseExactSkipsTierTwo) {
    Service service(Service::Config{});
    const model::KernelModel base = matmul_model();
    const Response first = service.handle(solve_request(base, 1, ReuseMode::Exact));
    ASSERT_TRUE(first.ok) << first.error;

    const Response warm =
        service.handle(solve_request(edited(base), 2, ReuseMode::Exact));
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_FALSE(warm.near_hit);
    EXPECT_EQ(counter(service, "svc.cache.near_hit"), 0);
    EXPECT_EQ(counter(service, "svc.reuse.adapted"), 0);

    // Exact mode still serves exact repeats.
    const Response repeat = service.handle(solve_request(base, 3, ReuseMode::Exact));
    EXPECT_TRUE(repeat.cache_hit);
}

TEST(SvcReuse, ReuseOffSolvesColdEvenOnExactRepeat) {
    Service service(Service::Config{});
    const model::KernelModel base = matmul_model();
    const Response first = service.handle(solve_request(base, 1, ReuseMode::Off));
    ASSERT_TRUE(first.ok) << first.error;
    const Response repeat = service.handle(solve_request(base, 2, ReuseMode::Off));
    ASSERT_TRUE(repeat.ok) << repeat.error;
    EXPECT_FALSE(repeat.cache_hit);
    EXPECT_FALSE(repeat.near_hit);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 0);
    EXPECT_EQ(counter(service, "svc.cache.miss"), 2);
    // Results still enter the cache for clients that do want reuse.
    const Response warm = service.handle(solve_request(base, 3, ReuseMode::Near));
    EXPECT_TRUE(warm.cache_hit);
}

TEST(SvcReuse, ExactHitUnaffectedByNearTier) {
    // The tier-1 path of an exact repeat is byte-identical with the near
    // tier populated: same schedule, same wire marker, hit counted.
    Service service(Service::Config{});
    const model::KernelModel base = matmul_model();
    const Response first = service.handle(solve_request(base, 1));
    ASSERT_TRUE(first.ok) << first.error;
    const Response second = service.handle(solve_request(base, 2));
    EXPECT_TRUE(second.cache_hit);
    EXPECT_FALSE(second.near_hit);
    EXPECT_NE(serialize_response(second).find("\"cache\":\"hit\""), std::string::npos);
    EXPECT_EQ(second.start, first.start);
    EXPECT_EQ(second.slot, first.slot);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 1);
    EXPECT_EQ(counter(service, "svc.cache.near_hit"), 0);
}

// The exact tier keys on the model's bytes: the same model in another
// layout misses it, and the near tier adapts the resident entry at
// distance 0. The answer carries the same hash, and the new text is cached
// beside the old one.
TEST(SvcReuse, ReformattedModelMissesTheExactTierAndAdaptsAtDistanceZero) {
    Service service(Service::Config{});
    const model::KernelModel base = matmul_model();
    const Response first =
        parse_response(service.handle_line(serialize_request(solve_request(base, 1))));
    ASSERT_TRUE(first.ok) << first.error;
    std::string pretty = model::to_json(base);  // indented, on many lines
    std::replace(pretty.begin(), pretty.end(), '\n', ' ');
    const std::string line = "{\"kind\":\"solve\",\"id\":2,\"model\":" + pretty + "}";
    const Response r = parse_response(service.handle_line(line));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.cache_hit);
    EXPECT_TRUE(r.near_hit);
    EXPECT_EQ(r.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(r.model_hash, first.model_hash);
    EXPECT_EQ(r.makespan, first.makespan);
    EXPECT_TRUE(model::check_schedule(base, r.start, r.slot, r.makespan).empty());
    EXPECT_EQ(counter(service, "svc.cache.hit"), 0);
    EXPECT_EQ(counter(service, "svc.cache.near_hit"), 1);
    EXPECT_EQ(counter(service, "svc.reuse.adapted"), 1);

    // Both texts are now keys: each repeat is served unread.
    EXPECT_TRUE(parse_response(service.handle_line(line)).cache_hit);
    EXPECT_TRUE(
        parse_response(service.handle_line(serialize_request(solve_request(base, 3))))
            .cache_hit);
    EXPECT_EQ(counter(service, "svc.cache.hit_unread"), 2);
}

TEST(SvcReuse, ZeroCapacityDisablesBothTiers) {
    Service::Config config;
    config.cache_capacity = 0;
    Service service(config);
    const model::KernelModel base = matmul_model();
    const Response first = service.handle(solve_request(base, 1));
    ASSERT_TRUE(first.ok) << first.error;
    const Response repeat = service.handle(solve_request(base, 2));
    ASSERT_TRUE(repeat.ok) << repeat.error;
    EXPECT_FALSE(repeat.cache_hit);
    const Response warm = service.handle(solve_request(edited(base), 3));
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_FALSE(warm.near_hit);
    EXPECT_EQ(counter(service, "svc.cache.hit"), 0);
    EXPECT_EQ(counter(service, "svc.cache.near_hit"), 0);
}

TEST(SvcReuse, ShedRequestRunsNoDonorSearch) {
    // A zero deadline sheds to the heuristic answer, which never takes a
    // donor seed, so the donor search is not run for it at all.
    Service service(Service::Config{});
    const model::KernelModel base = matmul_model();
    const Response first = service.handle(solve_request(base, 1));
    ASSERT_TRUE(first.ok) << first.error;
    Request shed = solve_request(edited(base), 2);
    shed.deadline_ms = 0;
    const Response r = service.handle(shed);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.shed);
    EXPECT_FALSE(r.near_hit);
    EXPECT_EQ(counter(service, "svc.cache.near_hit"), 0);
    EXPECT_EQ(counter(service, "svc.reuse.adapted"), 0);
    EXPECT_EQ(counter(service, "svc.reuse.no_donor"), 0);
    // Only the first request searched for a donor (and found none).
    const json::Value doc = json::parse(service.metrics_json());
    const json::Value* adapt = doc.find("histograms")->find("svc.phase.adapt_ms");
    ASSERT_NE(adapt, nullptr);
    EXPECT_EQ(adapt->find("count")->number, 1.0);
}

TEST(SvcReuse, ReuseModeRoundTripsThroughRequestWire) {
    for (const ReuseMode mode : {ReuseMode::Off, ReuseMode::Exact, ReuseMode::Near}) {
        Request req;
        req.kind = RequestKind::Ping;
        req.params.reuse = mode;
        EXPECT_EQ(parse_request(serialize_request(req)).params.reuse, mode);
    }
    // Default and rejection.
    EXPECT_EQ(parse_request("{\"kind\":\"ping\"}").params.reuse, ReuseMode::Near);
    EXPECT_THROW(parse_request("{\"kind\":\"ping\",\"options\":{\"reuse\":\"maybe\"}}"),
                 Error);
}

}  // namespace
}  // namespace revec::svc
