// The revecd request core (DESIGN §5i), transport-free: one Service object
// takes request lines and produces response lines; the socket server and
// the in-process tests drive the same code. Three cooperating pieces:
//
//  * a content-addressed ScheduleCache keyed on the model's wire bytes —
//    exact hits (byte-equal model text, found while the line is read, plus
//    a check_schedule re-verification) are answered without reading the
//    model or touching a solver;
//  * a bounded SolverPool multiplexing misses over a fixed set of worker
//    threads. Admission control guarantees an anytime answer: a request
//    whose deadline is 0, or that arrives with the queue full, is shed —
//    answered inline with a verified heuristic-only schedule
//    (HeuristicFallback) instead of queueing unboundedly;
//  * a mutex-guarded MetricsRegistry (svc.cache.*, svc.queue.*, svc.req.*)
//    dumped verbatim by the `stats` request, plus per-request obs spans on
//    the caller's session track.
//
// Thread safety: handle_line / handle may be called concurrently from any
// number of session threads; callers writing trace events must pass
// distinct session tracks (TraceBuffer is single-writer).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "revec/obs/flight.hpp"
#include "revec/obs/metrics.hpp"
#include "revec/obs/trace.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/stopwatch.hpp"
#include "revec/svc/cache.hpp"
#include "revec/svc/pool.hpp"
#include "revec/svc/protocol.hpp"

namespace revec::svc {

class Service {
public:
    struct Config {
        int pool_workers = 2;  ///< shared solver threads
        int max_queue = 8;     ///< solve requests waiting beyond the workers
        std::size_t cache_capacity = 128;  ///< schedule-cache entries; 0 = off
        obs::TraceSink* trace = nullptr;   ///< worker tracks registered here

        /// Flight recorder (DESIGN §5l): per-request rings recorded even
        /// when trace is null, dumped on interesting completions. An empty
        /// flight.dir disables it.
        obs::FlightConfig flight;
    };

    explicit Service(const Config& config);

    /// Parse one request line, dispatch it, serialize the response line
    /// (no trailing newline). Malformed requests produce an ok=false
    /// response instead of throwing.
    std::string handle_line(const std::string& line,
                            obs::TraceBuffer* session_track = nullptr);

    /// The typed core of handle_line. The request is taken by value: a
    /// proven result's cache entry takes over its model and bytes.
    Response handle(Request request, obs::TraceBuffer* session_track = nullptr);

    /// The ok=false response line for a request line that cannot be read
    /// (parse_request threw, or the server's line-length bound), counted
    /// in svc.req.parse_errors.
    std::string reject_line(const std::string& error);

    /// Set once a Shutdown request was acknowledged; the server polls it.
    bool shutdown_requested() const { return shutdown_.load(); }

    /// The MetricsRegistry JSON document (with live queue-depth and
    /// cache-size gauges refreshed at call time).
    std::string metrics_json() const;

private:
    Response handle_solve(Request& request, obs::TraceBuffer* session_track);
    Response solve_and_finish(Request& request, std::uint64_t rid, std::uint64_t hash,
                              std::optional<std::uint64_t> fingerprint,
                              const std::optional<sched::IncumbentSeed>& seed, bool shed,
                              std::int64_t timeout_ms, obs::TraceBuffer* solve_track,
                              obs::FlightRecording* flight, const Stopwatch& sw);

    /// Tier-2 pipeline on an exact miss: fetch the cache entries with the
    /// model's fingerprint, diff, adapt the nearest compatible donor, return
    /// the verified warm seed (nullopt when no donor survives). Updates the
    /// reuse metrics.
    std::optional<sched::IncumbentSeed> near_seed(const model::KernelModel& km,
                                                  std::uint64_t fingerprint,
                                                  obs::TraceBuffer* session_track,
                                                  obs::FlightRecording* flight);

    Config config_;
    ScheduleCache cache_;
    SolverPool pool_;
    obs::FlightRecorder flight_;
    mutable std::mutex metrics_mu_;
    mutable obs::MetricsRegistry metrics_;  ///< guarded by metrics_mu_
    std::atomic<bool> shutdown_{false};
    /// Fallback rid source for requests that arrive without one, so every
    /// request is correlatable. Daemon-unique, not globally unique.
    std::atomic<std::uint64_t> next_rid_{1};
};

}  // namespace revec::svc
