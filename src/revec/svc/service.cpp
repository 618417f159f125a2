#include "revec/svc/service.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "revec/heur/adapt.hpp"
#include "revec/model/check.hpp"
#include "revec/model/fingerprint.hpp"
#include "revec/model/json.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"

namespace revec::svc {

namespace {

/// The model a solve request asks for: its own, or, when the cache spared
/// the read, the one its bytes read as.
const model::KernelModel& model_of(const Request& request) {
    return request.model ? *request.model : request.cached->model;
}

}  // namespace

Service::Service(const Config& config)
    : config_(config),
      cache_(config.cache_capacity),
      pool_(SolverPool::Config{config.pool_workers, config.max_queue, config.trace}),
      flight_(config.flight) {}

std::string Service::handle_line(const std::string& line,
                                 obs::TraceBuffer* session_track) {
    const Stopwatch parse_sw;
    Request request;
    std::string error;
    bool parsed = true;
    try {
        // The exact tier is asked while the line is read: a model whose
        // bytes it holds is never read (DESIGN §5i).
        request = parse_request(
            line, [this](std::string_view bytes) { return cache_.find(bytes); });
    } catch (const Error& e) {
        parsed = false;
        error = e.what();
    }
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.observe("svc.phase.parse_ms", parse_sw.elapsed_ms());
    }
    return parsed ? serialize_response(handle(std::move(request), session_track))
                  : reject_line(error);
}

std::string Service::reject_line(const std::string& error) {
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.add("svc.req.parse_errors");
    }
    Response r;  // ok = false
    r.error = error;
    return serialize_response(r);
}

Response Service::handle(Request request, obs::TraceBuffer* session_track) {
    switch (request.kind) {
        case RequestKind::Ping: {
            Response r;
            r.id = request.id;
            r.rid = request.rid;
            r.ok = true;
            r.ack = true;
            return r;
        }
        case RequestKind::Shutdown: {
            shutdown_.store(true);
            obs::instant(session_track, obs::TraceLevel::Phase, "svc.shutdown");
            Response r;
            r.id = request.id;
            r.rid = request.rid;
            r.ok = true;
            r.ack = true;
            return r;
        }
        case RequestKind::Stats: {
            Response r;
            r.id = request.id;
            r.rid = request.rid;
            r.ok = true;
            r.metrics_json = metrics_json();
            return r;
        }
        case RequestKind::Solve:
            return handle_solve(request, session_track);
    }
    REVEC_UNREACHABLE("bad RequestKind");
}

Response Service::handle_solve(Request& request, obs::TraceBuffer* session_track) {
    const Stopwatch sw;
    // Correlation id (DESIGN §5l): client-chosen when present, assigned
    // here otherwise, stamped on every span emitted for this request.
    const std::uint64_t rid = request.rid != 0
                                  ? request.rid
                                  : next_rid_.fetch_add(1, std::memory_order_relaxed);
    const auto rid_i = static_cast<std::int64_t>(rid);
    const model::KernelModel& km = model_of(request);
    // The exact tier's key is the model's wire bytes (DESIGN §5k); a request
    // built in code is keyed on the bytes serialize_request would send.
    if (request.cached == nullptr && request.model_text.empty()) {
        request.model_text = model_wire_text(km);
    }
    // Read only by the donor search and by an insert, so a hit never pays
    // for it.
    std::optional<std::uint64_t> fingerprint;
    const bool reuse_exact = request.params.reuse != ReuseMode::Off;
    const bool reuse_near = request.params.reuse == ReuseMode::Near;

    obs::SpanScope span(session_track, obs::TraceLevel::Phase, "svc.request", "id",
                        request.id, "rid", rid_i);

    // Flight recorder: the always-on per-request ring, independent of the
    // daemon's --trace-level. The ring is single-writer at any moment —
    // session thread before submit and after the future resolves, pool
    // worker in between, ordered by the promise/future hand-off.
    std::unique_ptr<obs::FlightRecording> rec = flight_.begin(rid);
    obs::FlightRecording* const fl = rec.get();
    obs::TraceBuffer* const fr = fl != nullptr ? fl->track() : nullptr;
    obs::span_begin(fr, obs::TraceLevel::Phase, "svc.request", "id", request.id, "rid",
                    rid_i);

    // Close out the recording: end the request span, tail-sample (dump or
    // drop), and account for it. Called exactly once on every return path.
    const auto close_flight = [&](Response& r) {
        if (fl == nullptr) return;
        obs::span_end(fr, obs::TraceLevel::Phase, "svc.request", "shed",
                      r.shed ? 1 : 0, "ok", r.ok ? 1 : 0);
        const obs::FlightOutcome fo = flight_.finish(std::move(rec), r.solve_ms);
        if (fo.dumped) r.flight = fo.path;
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.add("svc.flight.recorded");
        if (fo.dumped) {
            metrics_.add("svc.flight.dump");
            metrics_.add(std::string("svc.flight.reason.") +
                         obs::flight_reason_name(fo.reason));
            if (fo.pruned > 0) metrics_.add("svc.flight.prune", fo.pruned);
        } else {
            metrics_.add("svc.flight.drop");
        }
    };

    // handle_line asked the cache while it read the line; a request it did
    // not answer there (or one built in code) is looked up here.
    std::shared_ptr<const CacheEntry> cached = request.cached;
    if (cached == nullptr && reuse_exact) cached = cache_.find(request.model_text);
    bool verify_failed = false;
    if (cached != nullptr && reuse_exact) {
        // Belt and braces on top of the cache's byte-exact key: the stored
        // schedule must verify clean against the model we were actually
        // asked to solve before it is served.
        const CachedSchedule& hit = cached->schedule;
        if (model::check_schedule(km, hit.start, hit.slot, hit.makespan).empty()) {
            cache_.touch(cached);
            Response r;
            r.id = request.id;
            r.rid = rid;
            r.ok = true;
            r.status = cp::SolveStatus::Optimal;
            r.makespan = hit.makespan;
            r.slots_used = hit.slots_used;
            r.start = hit.start;
            r.slot = hit.slot;
            r.cache_hit = true;
            r.model_hash = cached->model_hash;
            r.solve_ms = sw.elapsed_ms();
            span.result("hit", 1);
            obs::instant(fr, obs::TraceLevel::Phase, "svc.cache_hit", "makespan",
                         r.makespan);
            {
                std::lock_guard<std::mutex> lock(metrics_mu_);
                metrics_.add("svc.cache.hit");
                if (!request.model) metrics_.add("svc.cache.hit_unread");
                metrics_.add("svc.req.count");
                metrics_.add("svc.req.status.optimal");
                metrics_.observe("svc.req.latency_ms", r.solve_ms);
                metrics_.observe("svc.phase.lookup_ms", sw.elapsed_ms());
            }
            close_flight(r);
            return r;
        }
        verify_failed = true;
    }
    // A miss reports the model's canonical hash, as every response does.
    const std::uint64_t hash =
        request.cached ? request.cached->model_hash : model::canonical_hash(km);
    if (request.cached) fingerprint = request.cached->fingerprint;
    // The exact-tier counters partition the non-hit outcomes: a failed
    // re-verify is its own bucket, every other fall-through is a plain
    // miss (a later near hit still counts here — tier 1 did miss).
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.add(verify_failed ? "svc.cache.verify_fail" : "svc.cache.miss");
        metrics_.observe("svc.phase.lookup_ms", sw.elapsed_ms());
    }
    if (verify_failed) {
        if (fl != nullptr) fl->note(obs::FlightReason::VerifyFail);
        obs::instant(fr, obs::TraceLevel::Phase, "svc.cache_verify_fail");
    } else {
        obs::instant(fr, obs::TraceLevel::Phase, "svc.cache_miss");
    }

    // Tier 2: adapt the nearest structurally similar donor into a warm
    // incumbent. Computed inline on the session thread (greedy repair is
    // cheap) so a pool worker starts with the seed in hand. Heuristic-only
    // requests skip it — their answer may never come from a donor — and so
    // do zero-deadline requests, which are shed below and never take a
    // seed. (A queue-full shed is not known in advance: its search runs.)
    std::optional<sched::IncumbentSeed> seed;
    if (reuse_near && !request.params.heuristic_only && request.deadline_ms != 0) {
        const Stopwatch adapt_sw;
        fingerprint = model::structural_fingerprint(km);
        seed = near_seed(km, *fingerprint, session_track, fl);
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.observe("svc.phase.adapt_ms", adapt_sw.elapsed_ms());
    }

    Response r;
    if (request.deadline_ms == 0) {
        // A zero deadline can never fit a queue wait plus an exact solve:
        // shed immediately with the verified heuristic answer.
        if (fl != nullptr) fl->note(obs::FlightReason::Shed);
        obs::instant(fr, obs::TraceLevel::Phase, "svc.shed", "deadline_ms", 0);
        r = solve_and_finish(request, rid, hash, fingerprint, seed,
                             /*shed=*/true, 0, session_track, fl, sw);
    } else {
        std::promise<Response> done;
        std::future<Response> fut = done.get_future();
        // The session thread blocks on the future, so capturing the
        // request, seed, and stopwatch by reference is safe. The flight
        // ring hands over with the job: between a successful try_submit and
        // fut.get() only the pool worker may write it (the promise/future
        // pair is the ordering edge), so the session thread must not touch
        // fr inside this window.
        const Stopwatch queue_sw;
        const bool admitted =
            pool_.try_submit([this, &request, rid, hash, fingerprint, &seed,
                              &done, fl, fr, &queue_sw, &sw](obs::TraceBuffer* track) {
                const double waited_ms = queue_sw.elapsed_ms();
                obs::instant(fr, obs::TraceLevel::Phase, "svc.pool_pickup", "wait_ms",
                             static_cast<std::int64_t>(waited_ms));
                {
                    std::lock_guard<std::mutex> lock(metrics_mu_);
                    metrics_.observe("svc.phase.queue_wait_ms", waited_ms);
                }
                std::int64_t remaining = request.deadline_ms;
                if (remaining > 0) {
                    const auto waited = static_cast<std::int64_t>(sw.elapsed_ms());
                    remaining = std::max<std::int64_t>(0, remaining - waited);
                }
                done.set_value(solve_and_finish(request, rid, hash,
                                                fingerprint, seed, /*shed=*/false,
                                                remaining, track, fl, sw));
            });
        if (admitted) {
            {
                std::lock_guard<std::mutex> lock(metrics_mu_);
                metrics_.add("svc.queue.admitted");
                metrics_.gauge("svc.queue.depth",
                               static_cast<double>(pool_.queue_depth()));
            }
            r = fut.get();
        } else {
            if (fl != nullptr) fl->note(obs::FlightReason::Shed);
            obs::instant(fr, obs::TraceLevel::Phase, "svc.shed", "queue_full", 1);
            r = solve_and_finish(request, rid, hash, fingerprint, seed,
                                 /*shed=*/true, 0, session_track, fl, sw);
        }
    }

    span.result("hit", 0, "shed", r.shed ? 1 : 0);
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        if (r.shed) metrics_.add("svc.queue.shed");
        metrics_.add("svc.req.count");
        metrics_.observe("svc.req.latency_ms", r.solve_ms);
        if (r.ok) {
            metrics_.add(std::string("svc.req.status.") + status_name(r.status));
        } else {
            metrics_.add("svc.req.errors");
        }
    }
    close_flight(r);
    return r;
}

std::optional<sched::IncumbentSeed> Service::near_seed(const model::KernelModel& km,
                                                       std::uint64_t fingerprint,
                                                       obs::TraceBuffer* session_track,
                                                       obs::FlightRecording* flight) {
    obs::TraceBuffer* const fr = flight != nullptr ? flight->track() : nullptr;
    const std::vector<std::shared_ptr<const CacheEntry>> candidates =
        cache_.lookup_near(fingerprint);
    if (candidates.empty()) return std::nullopt;

    obs::SpanScope span(session_track, obs::TraceLevel::Phase, "svc.adapt",
                        "candidates", static_cast<std::int64_t>(candidates.size()));

    // Nearest compatible donor by ModelDelta distance. A donor with the
    // request's own exact hash (a hit that failed its re-verify, or one
    // inserted since the exact lookup) is legal and naturally wins at
    // distance 0.
    const CacheEntry* best = nullptr;
    model::ModelDelta best_delta;
    for (const std::shared_ptr<const CacheEntry>& cand : candidates) {
        model::ModelDelta delta = model::diff(cand->model, km);
        if (!delta.compatible()) continue;
        if (best == nullptr || delta.distance() < best_delta.distance()) {
            best = cand.get();
            best_delta = std::move(delta);
        }
    }
    if (best == nullptr) {
        span.result("ok", 0);
        obs::instant(fr, obs::TraceLevel::Phase, "svc.no_donor", "candidates",
                     static_cast<std::int64_t>(candidates.size()));
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.add("svc.reuse.no_donor");
        return std::nullopt;
    }

    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.add("svc.cache.near_hit");
    }

    const heur::AdaptResult adapted =
        heur::adapt_schedule(best->schedule.start, best_delta, km);
    span.result("ok", adapted.ok ? 1 : 0, "distance", best_delta.distance());
    std::lock_guard<std::mutex> lock(metrics_mu_);
    if (!adapted.ok) {
        // A near hit that the repair pass could not make feasible is a
        // tail-sampling trigger: the cache was close but the adaptation
        // machinery lost the win.
        if (flight != nullptr) flight->note(obs::FlightReason::AdaptRejected);
        obs::instant(fr, obs::TraceLevel::Phase, "svc.adapt_rejected", "distance",
                     best_delta.distance());
        metrics_.add("svc.reuse.adapt_rejected");
        return std::nullopt;
    }
    obs::instant(fr, obs::TraceLevel::Phase, "svc.adapted", "distance",
                 best_delta.distance(), "makespan", adapted.makespan);
    metrics_.add("svc.reuse.adapted");
    sched::IncumbentSeed seed;
    seed.start = adapted.start;
    seed.slot = adapted.slot;
    seed.makespan = adapted.makespan;
    seed.slots_used = adapted.slots_used;
    return seed;
}

Response Service::solve_and_finish(Request& request, std::uint64_t rid, std::uint64_t hash,
                                   std::optional<std::uint64_t> fingerprint,
                                   const std::optional<sched::IncumbentSeed>& seed,
                                   bool shed, std::int64_t timeout_ms,
                                   obs::TraceBuffer* solve_track,
                                   obs::FlightRecording* flight, const Stopwatch& sw) {
    const model::KernelModel& km = model_of(request);
    const auto rid_i = static_cast<std::int64_t>(rid);
    obs::TraceBuffer* const fr = flight != nullptr ? flight->track() : nullptr;
    obs::SpanScope fspan(fr, obs::TraceLevel::Phase, "svc.solve", "rid", rid_i, "shed",
                         shed ? 1 : 0);
    const Stopwatch solve_sw;

    sched::ModelSolveOptions mo;
    // Shed requests take the fast anytime path: the verified heuristic
    // schedule, computed inline, deadline-proof at any value including 0.
    mo.timeout_ms = shed ? 0 : timeout_ms;
    mo.warm_start = request.params.warm_start;
    mo.heuristic_only = shed || request.params.heuristic_only;
    mo.solver.threads = request.params.threads;
    mo.solver.seed = request.params.seed;
    mo.trace = solve_track;
    mo.solver.trace_rid = rid_i;
    // The adapted donor seed rides the warm-start plumbing; shed requests
    // answer heuristic-only, where a donor-derived schedule must never
    // stand in for the heuristic answer.
    const bool seeded = seed.has_value() && !shed && !mo.heuristic_only;
    if (seeded) mo.incumbent = seed;

    Response r;
    r.id = request.id;
    r.rid = rid;
    r.model_hash = hash;
    r.near_hit = seeded;
    r.shed = shed;
    try {
        const sched::Schedule s = sched::schedule_model(km, mo);
        r.status = s.status;
        if (s.feasible()) {
            const std::vector<std::string> violations =
                model::check_schedule(km, s.start, s.slot, s.makespan);
            if (!violations.empty()) {
                r.ok = false;
                r.error = "schedule failed verification: " + violations.front();
                r.solve_ms = sw.elapsed_ms();
                if (flight != nullptr) flight->note(obs::FlightReason::VerifyFail);
                obs::instant(fr, obs::TraceLevel::Phase, "svc.verify_fail");
                fspan.result("ok", 0);
                std::lock_guard<std::mutex> lock(metrics_mu_);
                metrics_.add("svc.req.verify_fail");
                metrics_.observe("svc.phase.solve_ms", solve_sw.elapsed_ms());
                return r;
            }
            r.makespan = s.makespan;
            r.slots_used = s.slots_used;
            r.start = s.start;
            r.slot = s.slot;
        }
        r.ok = true;
        // Only proven-optimal, full-solve results enter the cache; a shed
        // or deadline-shaped answer must not be replayed to later callers
        // nor donate its shape.
        if (s.status == cp::SolveStatus::Optimal && !shed) {
            const std::uint64_t fp =
                fingerprint ? *fingerprint : model::structural_fingerprint(km);
            // Nothing reads the request's model or bytes after this, so
            // they move into the entry; those of an entry it was answered
            // from (a reuse:"off" solve) are copied.
            CacheEntry entry{std::move(request.model_text), hash, fp, {},
                             CachedSchedule{s.start, s.slot, s.makespan, s.slots_used}};
            if (request.cached) entry.model_bytes = request.cached->model_bytes;
            if (request.model) {
                entry.model = std::move(*request.model);
            } else {
                entry.model = request.cached->model;
            }
            if (cache_.insert(std::move(entry))) {
                std::lock_guard<std::mutex> lock(metrics_mu_);
                metrics_.add("svc.cache.evictions");
            }
        }
    } catch (const std::exception& e) {
        // Any failure of one request (a model the solver rejects, or a bug
        // it trips) answers that request; it never unwinds a pool worker.
        r.ok = false;
        r.error = e.what();
        if (flight != nullptr) flight->note(obs::FlightReason::Error);
        obs::instant(fr, obs::TraceLevel::Phase, "svc.error");
    }
    r.solve_ms = sw.elapsed_ms();
    fspan.result("ok", r.ok ? 1 : 0, "makespan", r.makespan);
    {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.observe("svc.phase.solve_ms", solve_sw.elapsed_ms());
    }
    return r;
}

std::string Service::metrics_json() const {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    metrics_.gauge("svc.queue.depth", static_cast<double>(pool_.queue_depth()));
    metrics_.gauge("svc.cache.size", static_cast<double>(cache_.size()));
    metrics_.set("svc.pool.completed", pool_.completed());
    return metrics_.to_json();
}

}  // namespace revec::svc
