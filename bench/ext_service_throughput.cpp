// Extension — serving a solve stream through the revecd core: a batch of
// concurrent clients replays a request stream with duplicates against one
// in-process Service (the same object revecd wraps in a socket), and the
// harness reports end-to-end throughput, the cache's share of the stream,
// and the shed path under a saturated pool. Self-checks (non-zero exit):
//
//  * every response verify-clean against the requested model;
//  * after a sequential warm-up, every duplicate is served from the cache
//    (svc.cache.hit == duplicate count) — and the cached replay of the
//    whole stream is faster than the cold solve of the distinct models;
//  * with the queue removed (max_queue = 0), 100% of requests shed to a
//    verified HeuristicFallback answer;
//  * the hit path, split into the steps handle_line takes on a cache hit
//    (read the line with the cache lookup, re-verify, serialize) and timed
//    as min / median over interleaved repetitions, answers every request
//    from the cache without reading its model (svc.cache.hit_unread).
//
// Pass --smoke for the CI-sized variant (MATMUL only, small stream, few
// repetitions); pass --metrics <path> to archive the service registry JSON.
#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "revec/model/check.hpp"
#include "revec/model/fingerprint.hpp"
#include "revec/model/json.hpp"
#include "revec/sched/model.hpp"
#include "revec/svc/cache.hpp"
#include "revec/svc/service.hpp"

using namespace revec;

namespace {

svc::Request solve_request(const model::KernelModel& km, std::int64_t id,
                           std::int64_t deadline_ms = -1) {
    svc::Request req;
    req.kind = svc::RequestKind::Solve;
    req.id = id;
    req.deadline_ms = deadline_ms;
    req.model = km;
    return req;
}

std::int64_t counter(const svc::Service& service, const std::string& name) {
    const json::Value doc = json::parse(service.metrics_json());
    const json::Value* counters = doc.find("counters");
    if (counters == nullptr) return 0;
    const json::Value* v = counters->find(name);
    return v == nullptr ? 0 : static_cast<std::int64_t>(v->number);
}

bool verify_clean(const model::KernelModel& km, const svc::Response& r) {
    return r.ok && r.has_schedule() &&
           model::check_schedule(km, r.start, r.slot, r.makespan).empty();
}

/// "min / median" of `ms`, in milliseconds.
std::string min_median(std::vector<double> ms) {
    std::sort(ms.begin(), ms.end());
    return format_fixed(ms.front(), 3) + " / " + format_fixed(ms[ms.size() / 2], 3);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
    const std::string metrics_path = bench::metrics_path_from_args(argc, argv);

    bench::banner("Extension — scheduling-as-a-service throughput (revecd core)",
                  "batched concurrent solve requests over the §3.3-§3.5 model; "
                  "content-addressed schedule cache + bounded shared solver pool");

    std::vector<std::pair<const char*, model::KernelModel>> models;
    models.emplace_back("MATMUL", sched::lower_for_schedule(bench::kernel_matmul(),
                                                            sched::ScheduleOptions{}));
    if (!smoke) {
        models.emplace_back("QRD", sched::lower_for_schedule(bench::kernel_qrd(),
                                                             sched::ScheduleOptions{}));
        models.emplace_back("ARF", sched::lower_for_schedule(bench::kernel_arf(),
                                                             sched::ScheduleOptions{}));
    }
    const int threads = smoke ? 2 : 4;
    const int per_thread = smoke ? 4 : 16;
    const std::int64_t stream_len = static_cast<std::int64_t>(threads) * per_thread;

    svc::Service::Config config;
    config.pool_workers = 2;
    config.max_queue = 64;
    svc::Service service(config);
    bool all_ok = true;

    // Phase 1 — cold: solve each distinct model once, sequentially.
    double cold_ms = 0.0;
    std::vector<svc::Response> cold;
    {
        const Stopwatch watch;
        std::int64_t id = 0;
        for (const auto& [name, km] : models) {
            cold.push_back(service.handle(solve_request(km, id++, 60000)));
            const svc::Response& r = cold.back();
            if (!verify_clean(km, r) || r.status != cp::SolveStatus::Optimal ||
                r.cache_hit) {
                std::cout << "COLD SOLVE FAILED: " << name << " " << r.error << "\n";
                all_ok = false;
            }
        }
        cold_ms = watch.elapsed_ms();
    }

    // Phase 2 — replay: concurrent clients stream duplicates of the warmed
    // models; each request must be a verify-clean cache hit.
    std::atomic<int> bad{0};
    double replay_ms = 0.0;
    {
        const Stopwatch watch;
        std::vector<std::thread> clients;
        clients.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t) {
            clients.emplace_back([&, t] {
                for (int j = 0; j < per_thread; ++j) {
                    const auto& [name, km] =
                        models[static_cast<std::size_t>(t + j) % models.size()];
                    const svc::Response r =
                        service.handle(solve_request(km, 1000 + t * 100 + j, 60000));
                    if (!verify_clean(km, r)) ++bad;
                }
            });
        }
        for (std::thread& c : clients) c.join();
        replay_ms = watch.elapsed_ms();
    }
    const std::int64_t hits = counter(service, "svc.cache.hit");
    const bool cache_ok = bad.load() == 0 && hits == stream_len;
    all_ok = all_ok && cache_ok;

    // Phase 3 — saturation: no queue, so every request must shed to a
    // verified heuristic answer (the anytime guarantee under overload).
    svc::Service::Config tight;
    tight.pool_workers = 1;
    tight.max_queue = 0;
    tight.cache_capacity = 0;
    svc::Service saturated(tight);
    std::atomic<int> shed_bad{0};
    {
        std::vector<std::thread> clients;
        for (int t = 0; t < threads; ++t) {
            clients.emplace_back([&, t] {
                for (int j = 0; j < per_thread; ++j) {
                    const auto& [name, km] =
                        models[static_cast<std::size_t>(t + j) % models.size()];
                    const svc::Response s = saturated.handle(
                        solve_request(km, 2000 + t * 100 + j, /*deadline_ms=*/5));
                    const bool clean =
                        s.shed && s.status == cp::SolveStatus::HeuristicFallback &&
                        verify_clean(km, s);
                    if (!clean) ++shed_bad;
                }
            });
        }
        for (std::thread& c : clients) c.join();
    }
    const bool shed_ok =
        shed_bad.load() == 0 &&
        counter(saturated, "svc.queue.shed") == stream_len &&
        counter(saturated, "svc.queue.admitted") == 0;
    all_ok = all_ok && shed_ok;

    // Phase 4 — the hit path, step by step: the steps handle_line runs on a
    // cache hit, each timed on its own as the service calls it (the read
    // asks a cache holding the cold schedule under the line's model bytes),
    // then handle_line whole on the warmed service, which cached the typed
    // cold solves under the same bytes. Every repetition takes every kernel
    // and step once, so host drift spreads over all of them alike.
    const int reps = smoke ? 5 : 51;
    struct HitSplit {
        std::string line;
        std::vector<double> read, verify, serialize, total;
    };
    std::vector<HitSplit> splits(models.size());
    svc::ScheduleCache hit_cache(models.size());
    for (std::size_t k = 0; k < models.size(); ++k) {
        const model::KernelModel& km = models[k].second;
        splits[k].line = svc::serialize_request(solve_request(km, 3000, 60000));
        hit_cache.insert(svc::CacheEntry{svc::parse_request(splits[k].line).model_text,
                                         model::canonical_hash(km),
                                         model::structural_fingerprint(km), km,
                                         svc::CachedSchedule{cold[k].start, cold[k].slot,
                                                             cold[k].makespan,
                                                             cold[k].slots_used}});
    }
    const svc::ModelLookup lookup = [&hit_cache](std::string_view bytes) {
        return hit_cache.find(bytes);
    };
    const std::int64_t unread_before = counter(service, "svc.cache.hit_unread");
    bool hit_ok = true;
    for (int rep = 0; rep < reps; ++rep) {
        for (HitSplit& split : splits) {
            Stopwatch watch;
            const svc::Request req = svc::parse_request(split.line, lookup);
            split.read.push_back(watch.elapsed_ms());
            // A hit never reads the model: the entry stands in for it.
            hit_ok = hit_ok && req.cached != nullptr && !req.model.has_value();
            if (req.cached == nullptr) continue;

            watch = Stopwatch();
            const svc::CacheEntry& entry = *req.cached;
            const svc::CachedSchedule& cached = entry.schedule;
            const bool clean =
                model::check_schedule(entry.model, cached.start, cached.slot, cached.makespan)
                    .empty();
            hit_cache.touch(req.cached);
            split.verify.push_back(watch.elapsed_ms());
            hit_ok = hit_ok && clean;
            if (!clean) continue;

            svc::Response r;
            r.id = req.id;
            r.ok = true;
            r.status = cp::SolveStatus::Optimal;
            r.makespan = cached.makespan;
            r.slots_used = cached.slots_used;
            r.start = cached.start;
            r.slot = cached.slot;
            r.cache_hit = true;
            r.model_hash = entry.model_hash;
            watch = Stopwatch();
            const std::string wire = svc::serialize_response(r);
            split.serialize.push_back(watch.elapsed_ms());

            watch = Stopwatch();
            const std::string served = service.handle_line(split.line);
            split.total.push_back(watch.elapsed_ms());
            hit_ok = hit_ok && !wire.empty() && svc::parse_response(served).cache_hit;
        }
    }
    // Every handle_line above was a hit that never read its model.
    hit_ok = hit_ok && counter(service, "svc.cache.hit_unread") - unread_before ==
                           static_cast<std::int64_t>(reps) *
                               static_cast<std::int64_t>(models.size());
    all_ok = all_ok && hit_ok;

    Table t({"phase", "requests", "wall (ms)", "req/s", "cache hits", "status"});
    const auto rate = [](std::int64_t n, double ms) {
        return ms > 0.0 ? format_fixed(1000.0 * static_cast<double>(n) / ms, 0) : "-";
    };
    t.add_row({"cold distinct", std::to_string(models.size()), format_fixed(cold_ms, 1),
               rate(static_cast<std::int64_t>(models.size()), cold_ms), "0",
               all_ok || cache_ok ? "optimal, verified" : "FAILED"});
    t.add_row({"cached replay", std::to_string(stream_len), format_fixed(replay_ms, 1),
               rate(stream_len, replay_ms), std::to_string(hits),
               cache_ok ? "all hits, verified" : "CACHE MISSED"});
    t.add_row({"saturated shed", std::to_string(stream_len), "-", "-", "0",
               shed_ok ? "100% shed, verified" : "SHED FAILED"});
    t.print(std::cout);

    bench::note("the replay phase re-asks the warmed models only: its req/s is the "
                "cache-hit service rate of requests built in code (model text + "
                "byte-key lookup + re-verify), not a solver rate. The saturated phase holds the anytime contract with "
                "the pool taken away entirely.");

    std::cout << "\nHit path, min / median ms over " << reps
              << " interleaved repetitions:\n";
    Table h({"kernel", "request bytes", "read + lookup", "re-verify", "serialize",
             "handle_line"});
    for (std::size_t k = 0; k < models.size(); ++k) {
        const HitSplit& split = splits[k];
        if (split.total.empty()) continue;
        h.add_row({models[k].first, std::to_string(split.line.size()), min_median(split.read),
                   min_median(split.verify), min_median(split.serialize),
                   min_median(split.total)});
    }
    h.print(std::cout);
    if (!hit_ok) {
        std::cout << "HIT PATH FAILED: a request was not served from the cache unread\n";
    }

    if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        out << service.metrics_json() << "\n";
        REVEC_EXPECTS(out.good());
        bench::note("wrote metrics to " + metrics_path);
    }

    std::cout << (all_ok ? "\nservice throughput checks passed\n"
                         : "\nSERVICE THROUGHPUT CHECK FAILURES PRESENT\n");
    return all_ok ? 0 : 1;
}
