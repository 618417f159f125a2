#include "revec/svc/protocol.hpp"

#include <climits>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "revec/model/json.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"

namespace revec::svc {

namespace {

using json::Value;

const char* kind_name(RequestKind kind) {
    switch (kind) {
        case RequestKind::Solve: return "solve";
        case RequestKind::Stats: return "stats";
        case RequestKind::Ping: return "ping";
        case RequestKind::Shutdown: return "shutdown";
    }
    REVEC_UNREACHABLE("bad RequestKind");
}

/// `v` as an integer in [lo, hi]; anything else (a fraction, NaN, a value
/// a cast could not represent) throws instead of being truncated.
double integral(const Value& v, double lo, double hi, std::string_view key) {
    if (!v.is(Value::Type::Number) || !(v.number >= lo && v.number <= hi) ||
        v.number != std::trunc(v.number)) {
        throw Error("field '" + std::string(key) + "' must be an integer in range");
    }
    return v.number;
}

/// Field `key` of `obj` as an integer in [lo, hi], or `fallback` when it is
/// absent. The default range is int64's: 2^63 - 1024 is the largest double
/// below 2^63. Callers that narrow the result pass their target type's range.
std::int64_t get_int(const Value& obj, std::string_view key, std::int64_t fallback,
                     double lo = -0x1p63, double hi = 0x1p63 - 1024.0) {
    const Value* v = obj.find(key);
    if (v == nullptr) return fallback;
    return static_cast<std::int64_t>(integral(*v, lo, hi, key));
}

/// An int-typed field: rejects what an int cannot hold instead of wrapping it.
int get_int32(const Value& obj, std::string_view key, int fallback) {
    return static_cast<int>(get_int(obj, key, fallback, INT_MIN, INT_MAX));
}

bool get_bool(const Value& obj, std::string_view key, bool fallback) {
    const Value* v = obj.find(key);
    if (v == nullptr) return fallback;
    if (!v->is(Value::Type::Bool)) {
        throw Error("request field '" + std::string(key) + "' must be a boolean");
    }
    return v->boolean;
}

void append_int_array(json::Writer& os, std::string_view key, const std::vector<int>& xs) {
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) os << ',';
        os << xs[i];
    }
    os << ']';
}

std::vector<int> get_ints(const Value& obj, std::string_view key) {
    std::vector<int> out;
    const Value* v = obj.find(key);
    if (v == nullptr) return out;
    if (!v->is(Value::Type::Array)) {
        throw Error("field '" + std::string(key) + "' must be an array");
    }
    out.reserve(v->array.size());
    for (const Value& e : v->array) {
        out.push_back(static_cast<int>(integral(e, INT_MIN, INT_MAX, key)));
    }
    return out;
}

std::string hash_hex(std::uint64_t h) {
    static const char* kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[h & 0xf];
        h >>= 4;
    }
    return out;
}

std::uint64_t hash_from_hex(const std::string& s) {
    std::uint64_t h = 0;
    for (const char c : s) {
        h <<= 4;
        if (c >= '0' && c <= '9') {
            h |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            h |= static_cast<std::uint64_t>(10 + c - 'a');
        } else {
            throw Error("malformed hash field");
        }
    }
    return h;
}

}  // namespace

const char* status_name(cp::SolveStatus status) {
    switch (status) {
        case cp::SolveStatus::Optimal: return "optimal";
        case cp::SolveStatus::Unsat: return "unsat";
        case cp::SolveStatus::SatTimeout: return "sat_timeout";
        case cp::SolveStatus::Timeout: return "timeout";
        case cp::SolveStatus::HeuristicFallback: return "heuristic_fallback";
    }
    REVEC_UNREACHABLE("bad SolveStatus");
}

std::optional<cp::SolveStatus> status_from_name(const std::string& name) {
    if (name == "optimal") return cp::SolveStatus::Optimal;
    if (name == "unsat") return cp::SolveStatus::Unsat;
    if (name == "sat_timeout") return cp::SolveStatus::SatTimeout;
    if (name == "timeout") return cp::SolveStatus::Timeout;
    if (name == "heuristic_fallback") return cp::SolveStatus::HeuristicFallback;
    return std::nullopt;
}

const char* reuse_name(ReuseMode mode) {
    switch (mode) {
        case ReuseMode::Off: return "off";
        case ReuseMode::Exact: return "exact";
        case ReuseMode::Near: return "near";
    }
    REVEC_UNREACHABLE("bad ReuseMode");
}

std::optional<ReuseMode> reuse_from_name(const std::string& name) {
    if (name == "off") return ReuseMode::Off;
    if (name == "exact") return ReuseMode::Exact;
    if (name == "near") return ReuseMode::Near;
    return std::nullopt;
}

Request parse_request(const std::string& line) {
    const Value doc = json::parse(line);
    if (!doc.is(Value::Type::Object)) throw Error("request must be a JSON object");

    Request req;
    const Value* kind = doc.find("kind");
    if (kind == nullptr || !kind->is(Value::Type::String)) {
        throw Error("request needs a string 'kind'");
    }
    if (kind->str == "solve") {
        req.kind = RequestKind::Solve;
    } else if (kind->str == "stats") {
        req.kind = RequestKind::Stats;
    } else if (kind->str == "ping") {
        req.kind = RequestKind::Ping;
    } else if (kind->str == "shutdown") {
        req.kind = RequestKind::Shutdown;
    } else {
        throw Error("unknown request kind '" + kind->str + "'");
    }

    req.id = get_int(doc, "id", 0);
    req.deadline_ms = get_int(doc, "deadline_ms", -1);
    if (const Value* rid = doc.find("rid"); rid != nullptr) {
        if (!rid->is(Value::Type::String)) throw Error("request 'rid' must be a string");
        req.rid = hash_from_hex(rid->str);
    }

    if (const Value* options = doc.find("options"); options != nullptr) {
        if (!options->is(Value::Type::Object)) throw Error("'options' must be an object");
        req.params.threads = get_int32(*options, "threads", req.params.threads);
        req.params.lns_workers = get_int32(*options, "lns_workers", req.params.lns_workers);
        req.params.lns_relax_pct =
            get_int32(*options, "lns_relax_pct", req.params.lns_relax_pct);
        req.params.seed = static_cast<std::uint32_t>(get_int(
            *options, "seed", static_cast<std::int64_t>(req.params.seed), 0, UINT32_MAX));
        req.params.warm_start = get_bool(*options, "warm_start", req.params.warm_start);
        req.params.heuristic_only =
            get_bool(*options, "heuristic_only", req.params.heuristic_only);
        if (const Value* reuse = options->find("reuse"); reuse != nullptr) {
            if (!reuse->is(Value::Type::String)) {
                throw Error("options.reuse must be a string");
            }
            const auto mode = reuse_from_name(reuse->str);
            if (!mode.has_value()) {
                throw Error("options.reuse must be one of off|exact|near");
            }
            req.params.reuse = *mode;
        }
        if (req.params.threads < 1) throw Error("options.threads must be >= 1");
        if (req.params.lns_workers < 0) throw Error("options.lns_workers must be >= 0");
        if (req.params.lns_relax_pct < 1 || req.params.lns_relax_pct > 100) {
            throw Error("options.lns_relax_pct must be in [1, 100]");
        }
    }

    if (req.kind == RequestKind::Solve) {
        const Value* m = doc.find("model");
        if (m == nullptr || !m->is(Value::Type::Object)) {
            throw Error("solve request needs a 'model' object");
        }
        req.model = model::from_json(*m);
    }
    return req;
}

std::string serialize_request(const Request& request) {
    json::Writer os;
    os << "{\"kind\":\"" << kind_name(request.kind) << "\",\"id\":" << request.id
       << ",\"deadline_ms\":" << request.deadline_ms;
    if (request.rid != 0) os << ",\"rid\":\"" << hash_hex(request.rid) << "\"";
    os << ",\"options\":{\"threads\":" << request.params.threads
       << ",\"lns_workers\":" << request.params.lns_workers
       << ",\"lns_relax_pct\":" << request.params.lns_relax_pct
       << ",\"seed\":" << request.params.seed
       << ",\"warm_start\":" << (request.params.warm_start ? "true" : "false")
       << ",\"heuristic_only\":" << (request.params.heuristic_only ? "true" : "false")
       << ",\"reuse\":\"" << reuse_name(request.params.reuse) << "\"}";
    if (request.model.has_value()) {
        // Re-serialize the canonical pretty form onto one line.
        os << ",\"model\":";
        json::write_compact(json::parse(model::to_json(*request.model)), os);
    }
    os << "}";
    return os.take();
}

std::string serialize_response(const Response& response) {
    json::Writer os;
    os << "{\"id\":" << response.id;
    if (response.rid != 0) os << ",\"rid\":\"" << hash_hex(response.rid) << "\"";
    os << ",\"ok\":" << (response.ok ? "true" : "false");
    if (!response.ok) {
        os << ",\"error\":";
        os.quoted(response.error) << "}";
        return os.take();
    }
    if (response.ack) {
        os << ",\"ack\":true}";
        return os.take();
    }
    if (!response.metrics_json.empty()) {
        os << ",\"metrics\":";
        json::write_compact(json::parse(response.metrics_json), os);
        os << "}";
        return os.take();
    }
    os << ",\"status\":\"" << status_name(response.status) << "\"";
    if (response.has_schedule()) {
        os << ",\"makespan\":" << response.makespan
           << ",\"slots_used\":" << response.slots_used;
        append_int_array(os, "start", response.start);
        append_int_array(os, "slot", response.slot);
    }
    os << ",\"cache\":\""
       << (response.cache_hit ? "hit" : (response.near_hit ? "near" : "miss")) << "\""
       << ",\"shed\":" << (response.shed ? "true" : "false") << ",\"solve_ms\":"
       << static_cast<std::int64_t>(response.solve_ms) << ",\"hash\":\""
       << hash_hex(response.model_hash) << "\"";
    if (!response.flight.empty()) {
        os << ",\"flight\":";
        os.quoted(response.flight);
    }
    os << "}";
    return os.take();
}

Response parse_response(const std::string& line) {
    const Value doc = json::parse(line);
    if (!doc.is(Value::Type::Object)) throw Error("response must be a JSON object");
    Response r;
    r.id = get_int(doc, "id", 0);
    if (const Value* rid = doc.find("rid");
        rid != nullptr && rid->is(Value::Type::String)) {
        r.rid = hash_from_hex(rid->str);
    }
    const Value* ok = doc.find("ok");
    if (ok == nullptr || !ok->is(Value::Type::Bool)) {
        throw Error("response needs a boolean 'ok'");
    }
    r.ok = ok->boolean;
    if (!r.ok) {
        if (const Value* err = doc.find("error");
            err != nullptr && err->is(Value::Type::String)) {
            r.error = err->str;
        }
        return r;
    }
    if (get_bool(doc, "ack", false)) {
        r.ack = true;
        return r;
    }
    if (const Value* metrics = doc.find("metrics"); metrics != nullptr) {
        r.metrics_json = json::to_compact_string(*metrics);
        return r;
    }
    if (const Value* status = doc.find("status");
        status != nullptr && status->is(Value::Type::String)) {
        const auto parsed = status_from_name(status->str);
        if (!parsed.has_value()) throw Error("unknown status '" + status->str + "'");
        r.status = *parsed;
    }
    r.makespan = get_int32(doc, "makespan", 0);
    r.slots_used = get_int32(doc, "slots_used", 0);
    r.start = get_ints(doc, "start");
    r.slot = get_ints(doc, "slot");
    if (const Value* cache = doc.find("cache");
        cache != nullptr && cache->is(Value::Type::String)) {
        r.cache_hit = cache->str == "hit";
        r.near_hit = cache->str == "near";
    }
    r.shed = get_bool(doc, "shed", false);
    r.solve_ms = static_cast<double>(get_int(doc, "solve_ms", 0));
    if (const Value* hash = doc.find("hash");
        hash != nullptr && hash->is(Value::Type::String)) {
        r.model_hash = hash_from_hex(hash->str);
    }
    if (const Value* flight = doc.find("flight");
        flight != nullptr && flight->is(Value::Type::String)) {
        r.flight = flight->str;
    }
    return r;
}

}  // namespace revec::svc
