#include "revec/svc/protocol.hpp"

#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <string>
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

/// Upper bound on `options.threads + options.lns_workers`: the solve
/// starts one thread per worker, so a request may not ask for more.
constexpr std::int64_t kMaxRequestWorkers = 64;

/// `v` as an integer in [lo, hi]; anything else (a fraction, NaN, a value
/// a cast could not represent) throws instead of being truncated.
double integral(double v, double lo, double hi, std::string_view key) {
    if (!(v >= lo && v <= hi) || v != std::trunc(v)) {
        throw Error("field '" + std::string(key) + "' must be an integer in range");
    }
    return v;
}

double integral(const Value& v, double lo, double hi, std::string_view key) {
    return integral(v.is(Value::Type::Number) ? v.number : NAN, lo, hi, key);
}

// Request fields, read off the wire through a json::Reader: the default
// range is int64's (2^63 - 1024 is the largest double below 2^63);
// narrowed fields pass their target type's range.

std::int64_t read_int(json::Reader& in, std::string_view key, double lo = -0x1p63,
                      double hi = 0x1p63 - 1024.0) {
    const double v = in.peek() == Value::Type::Number ? in.number() : NAN;
    return static_cast<std::int64_t>(integral(v, lo, hi, key));
}

int read_int32(json::Reader& in, std::string_view key) {
    return static_cast<int>(read_int(in, key, INT_MIN, INT_MAX));
}

bool read_bool(json::Reader& in, std::string_view key) {
    if (in.peek() != Value::Type::Bool) {
        throw Error("request field '" + std::string(key) + "' must be a boolean");
    }
    return in.boolean();
}

enum OptionKey : std::size_t {
    kThreads, kLnsWorkers, kLnsRelaxPct, kSeed, kWarmStart, kHeuristicOnly, kReuse,
};
constexpr std::array<std::string_view, 7> kOptionKeys = {
    "threads", "lns_workers", "lns_relax_pct", "seed", "warm_start", "heuristic_only", "reuse",
};

void read_options(json::Reader& in, SolveParams& p) {
    if (in.peek() != Value::Type::Object) throw Error("'options' must be an object");
    in.fields(kOptionKeys, [&](std::size_t i) {
        const std::string_view key = kOptionKeys[i];
        switch (static_cast<OptionKey>(i)) {
            case kThreads: p.threads = read_int32(in, key); return;
            case kLnsWorkers: p.lns_workers = read_int32(in, key); return;
            case kLnsRelaxPct: p.lns_relax_pct = read_int32(in, key); return;
            case kSeed:
                p.seed = static_cast<std::uint32_t>(read_int(in, key, 0, UINT32_MAX));
                return;
            case kWarmStart: p.warm_start = read_bool(in, key); return;
            case kHeuristicOnly: p.heuristic_only = read_bool(in, key); return;
            case kReuse: {
                if (in.peek() != Value::Type::String) {
                    throw Error("options.reuse must be a string");
                }
                const auto mode = reuse_from_name(in.string());
                if (!mode.has_value()) throw Error("options.reuse must be one of off|exact|near");
                p.reuse = *mode;
                return;
            }
        }
    });
    if (p.threads < 1) throw Error("options.threads must be >= 1");
    if (p.lns_workers < 0) throw Error("options.lns_workers must be >= 0");
    if (std::int64_t{p.threads} + p.lns_workers > kMaxRequestWorkers) {
        throw Error("options.threads + options.lns_workers must be <= " +
                    std::to_string(kMaxRequestWorkers));
    }
    if (p.lns_relax_pct < 1 || p.lns_relax_pct > 100) {
        throw Error("options.lns_relax_pct must be in [1, 100]");
    }
}

enum RequestKey : std::size_t { kKind, kId, kDeadlineMs, kRid, kOptions, kModel };
constexpr std::array<std::string_view, 6> kRequestKeys = {"kind",    "id",      "deadline_ms",
                                                          "rid",     "options", "model"};

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

/// Append JSON `text` on one line: the whitespace outside string literals
/// (the canonical model form's indentation and line breaks) is dropped, the
/// rest copied byte for byte. Equal to write_compact(parse(text)) for a
/// to_json output, without building the tree.
void append_one_line(json::Writer& os, std::string_view text) {
    std::size_t run = 0;  // start of the bytes not yet copied
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '"') {
            // Skip to the closing quote; an escape hides the byte after it.
            for (++i; i < text.size() && text[i] != '"'; ++i) {
                if (text[i] == '\\') ++i;
            }
        } else if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
            os << text.substr(run, i - run);
            run = i + 1;
        }
    }
    os << text.substr(run);
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
    json::Reader in(line);
    if (in.peek() != Value::Type::Object) {
        in.skip();  // a malformed line reports its syntax error first
        in.finish();
        throw Error("request must be a JSON object");
    }
    Request req;
    const std::uint32_t seen = in.fields(kRequestKeys, [&](std::size_t i) {
        const std::string_view key = kRequestKeys[i];
        switch (static_cast<RequestKey>(i)) {
            case kKind: {
                if (in.peek() != Value::Type::String) throw Error("request needs a string 'kind'");
                const std::string kind = in.string();
                if (kind == "solve") {
                    req.kind = RequestKind::Solve;
                } else if (kind == "stats") {
                    req.kind = RequestKind::Stats;
                } else if (kind == "ping") {
                    req.kind = RequestKind::Ping;
                } else if (kind == "shutdown") {
                    req.kind = RequestKind::Shutdown;
                } else {
                    throw Error("unknown request kind '" + kind + "'");
                }
                return;
            }
            case kId: req.id = read_int(in, key); return;
            case kDeadlineMs: req.deadline_ms = read_int(in, key); return;
            case kRid:
                if (in.peek() != Value::Type::String) {
                    throw Error("request 'rid' must be a string");
                }
                req.rid = hash_from_hex(in.string());
                return;
            case kOptions: read_options(in, req.params); return;
            case kModel:
                // Read in place whatever the kind, which may come later: a
                // request that carries a model carries a valid one.
                req.model = model::from_json(in);
                return;
        }
    });
    in.finish();
    if ((seen & (1u << kKind)) == 0) throw Error("request needs a string 'kind'");
    if (req.kind != RequestKind::Solve) {
        req.model.reset();
    } else if (!req.model.has_value()) {
        throw Error("solve request needs a 'model' object");
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
        os << ",\"model\":";
        append_one_line(os, model::to_json(*request.model));
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
