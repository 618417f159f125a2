// Wire protocol of the revecd scheduling service (DESIGN §5i): newline-
// delimited JSON over a unix-domain socket. One request object per line,
// one response object per line, matched by the client-chosen `id`. The
// solve payload is the KernelModel in its canonical --dump-model shape
// (model::to_json / model::from_json), so anything revecc can dump, revecd
// can serve.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "revec/cp/search.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/svc/cache.hpp"

namespace revec::svc {

enum class RequestKind {
    Solve,     ///< schedule the embedded model under the deadline
    Stats,     ///< dump the service MetricsRegistry JSON
    Ping,      ///< liveness probe
    Shutdown,  ///< ask the daemon to drain and exit
};

/// How far the service may go to reuse cached schedules for this request
/// (DESIGN §5k). Off = always solve cold (results are still inserted for
/// other clients); Exact = tier-1 byte-exact hits only (the pre-§5k
/// behavior); Near = additionally adapt a structurally similar donor into
/// a warm incumbent on an exact miss.
enum class ReuseMode {
    Off,
    Exact,
    Near,
};

/// Per-request solver knobs, mirroring revecc's flags. Defaults match a
/// plain `revecc <ir.xml>` run so a request with no options field solves
/// exactly like the standalone binary.
struct SolveParams {
    int threads = 1;
    std::uint32_t seed = 0x5eedu;
    bool warm_start = true;
    bool heuristic_only = false;
    ReuseMode reuse = ReuseMode::Near;
};

struct Request {
    RequestKind kind = RequestKind::Ping;
    std::int64_t id = 0;

    /// Request id for telemetry correlation (DESIGN §5l): chosen by the
    /// client, carried as 16 hex digits on the wire, stamped into every
    /// span/instant emitted on the request's behalf (session track, pool
    /// worker, flight recorder) and echoed in the response.
    /// 0 = unset; the service assigns one so every request is correlated.
    std::uint64_t rid = 0;

    /// Wall-clock budget for this request in milliseconds; -1 = none.
    /// Admission control guarantees an anytime answer at every value,
    /// including 0 (verified heuristic schedule).
    std::int64_t deadline_ms = -1;

    SolveParams params;
    /// Required for Solve, unless `cached` stands in for it.
    std::optional<model::KernelModel> model;
    /// The cache entry whose model bytes equal this line's `model` value,
    /// found while the line was read (parse_request with a lookup). When
    /// `model` is empty, the model was never read: `cached->model` is what
    /// its bytes read as.
    std::shared_ptr<const CacheEntry> cached;
    /// The `model` value's bytes as they came off the wire, when it was
    /// read and not found in the cache: the key its result is cached
    /// under. Empty for a request built in code (the service then keys it
    /// on model_wire_text).
    std::string model_text;
};

struct Response {
    std::int64_t id = 0;
    std::uint64_t rid = 0;  ///< echo of the request's (possibly assigned) rid
    bool ok = false;
    std::string error;  ///< set when !ok
    bool ack = false;   ///< bare acknowledgement (ping, shutdown)

    // Solve results.
    cp::SolveStatus status = cp::SolveStatus::Timeout;
    int makespan = 0;
    int slots_used = 0;
    std::vector<int> start;
    std::vector<int> slot;
    bool cache_hit = false;  ///< served from the schedule cache, no solve
    bool near_hit = false;   ///< solved warm from an adapted tier-2 donor
    bool shed = false;       ///< admission shed: inline heuristic-only answer
    double solve_ms = 0.0;   ///< service-side wall clock for this request
    std::uint64_t model_hash = 0;  ///< canonical_hash of the solved model
    std::string flight;  ///< flight-recorder dump path, when the request dumped

    // Stats results: the MetricsRegistry JSON document, verbatim.
    std::string metrics_json;

    bool has_schedule() const { return !start.empty(); }
};

/// Lower-case wire names for SolveStatus ("optimal", "unsat",
/// "sat_timeout", "timeout", "heuristic_fallback").
const char* status_name(cp::SolveStatus status);
std::optional<cp::SolveStatus> status_from_name(const std::string& name);

/// Wire names for ReuseMode ("off", "exact", "near").
const char* reuse_name(ReuseMode mode);
std::optional<ReuseMode> reuse_from_name(const std::string& name);

/// A pure read of the schedule cache by a model's bytes: no recency, no
/// counter (ScheduleCache::find).
using ModelLookup = std::function<std::shared_ptr<const CacheEntry>(std::string_view)>;

/// Parse one request line. Throws revec::Error on malformed JSON, unknown
/// kinds, or a Solve without a model. With a `lookup`, a `model` value
/// whose bytes the cache holds is not read again: the request carries the
/// entry instead (DESIGN §5i). What is accepted does not change.
Request parse_request(const std::string& line, const ModelLookup& lookup = {});

/// The bytes serialize_request sends for `m`: model::to_json on one line.
std::string model_wire_text(const model::KernelModel& m);

/// Serialize a request as a single line (no trailing newline). The model
/// is embedded as a compact JSON object.
std::string serialize_request(const Request& request);

/// Serialize a response as a single line (no trailing newline).
std::string serialize_response(const Response& response);

/// Parse one response line (the client side). Throws revec::Error on
/// malformed input.
Response parse_response(const std::string& line);

}  // namespace revec::svc
