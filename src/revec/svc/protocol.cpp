#include "revec/svc/protocol.hpp"

#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "revec/cp/portfolio.hpp"
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

/// Begin reading a request or response line, which must hold one object;
/// anything else is refused as `what` (after its syntax error, if any).
void expect_object(json::Reader& in, const char* what) {
    if (in.peek() == Value::Type::Object) return;
    in.skip();
    in.finish();
    throw Error(what);
}

// Typed fields, read off the wire through a json::Reader: an integer in
// [lo, hi] — anything else (a fraction, NaN, a value a cast could not
// represent) throws instead of being truncated. The default range is
// int64's (2^63 - 1024 is the largest double below 2^63); narrowed fields
// pass their target type's range.

std::int64_t read_int(json::Reader& in, std::string_view key, double lo = -0x1p63,
                      double hi = 0x1p63 - 1024.0) {
    const double v = in.peek() == Value::Type::Number ? in.number() : NAN;
    if (!(v >= lo && v <= hi) || v != std::trunc(v)) {
        throw Error("field '" + std::string(key) + "' must be an integer in range");
    }
    return static_cast<std::int64_t>(v);
}

int read_int32(json::Reader& in, std::string_view key) {
    return static_cast<int>(read_int(in, key, INT_MIN, INT_MAX));
}

bool read_bool(json::Reader& in, std::string_view key) {
    if (in.peek() != Value::Type::Bool) {
        throw Error("field '" + std::string(key) + "' must be a boolean");
    }
    return in.boolean();
}

std::vector<int> read_ints(json::Reader& in, std::string_view key) {
    if (in.peek() != Value::Type::Array) {
        throw Error("field '" + std::string(key) + "' must be an array");
    }
    std::vector<int> out;
    in.array([&] { out.push_back(read_int32(in, key)); });
    return out;
}

/// A field that only counts as a string: its text, or "" (the value
/// skipped) when it holds anything else. hash_from_hex("") is 0, unset.
std::string string_or_skip(json::Reader& in) {
    if (in.peek() == Value::Type::String) return in.string();
    in.skip();
    return {};
}

enum OptionKey : std::size_t {
    kThreads, kSeed, kWarmStart, kHeuristicOnly, kReuse,
};
constexpr std::array<std::string_view, 5> kOptionKeys = {
    "threads", "seed", "warm_start", "heuristic_only", "reuse",
};

void read_options(json::Reader& in, SolveParams& p) {
    if (in.peek() != Value::Type::Object) throw Error("'options' must be an object");
    in.fields(kOptionKeys, [&](std::size_t i) {
        const std::string_view key = kOptionKeys[i];
        switch (static_cast<OptionKey>(i)) {
            case kThreads: p.threads = read_int32(in, key); return;
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
    // The solve starts one thread per worker: refuse a count past the cap
    // here, before any thread starts.
    if (p.threads < 1 || p.threads > cp::kMaxWorkers) {
        throw Error("options.threads must be in [1, " + std::to_string(cp::kMaxWorkers) + "]");
    }
}

enum RequestKey : std::size_t { kKind, kId, kDeadlineMs, kRid, kOptions, kModel };
constexpr std::array<std::string_view, 6> kRequestKeys = {"kind",    "id",      "deadline_ms",
                                                          "rid",     "options", "model"};

/// A response's envelope, read first, and its solve fields.
enum ResponseHeadKey : std::size_t {
    kRespId, kRespRid, kRespOk, kRespError, kRespAck, kRespMetrics,
};
constexpr std::array<std::string_view, 6> kResponseHeadKeys = {
    "id", "rid", "ok", "error", "ack", "metrics",
};
enum ResponseBodyKey : std::size_t {
    kStatus, kMakespan, kSlotsUsed, kStart, kSlot, kCache, kShed, kSolveMs, kHash, kFlight,
};
constexpr std::array<std::string_view, 10> kResponseBodyKeys = {
    "status", "makespan", "slots_used", "start", "slot",
    "cache",  "shed",     "solve_ms",   "hash",  "flight",
};

void append_int_array(json::Writer& os, std::string_view key, const std::vector<int>& xs) {
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) os << ',';
        os << xs[i];
    }
    os << ']';
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
    // A 17th digit would shift the first one out: "10000000000000000"
    // must not read as 0, unset.
    if (s.size() > 16) throw Error("malformed hash field: more than 16 hex digits");
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

/// The `model` value on the guess that it is the line's last field, where
/// serialize_request puts it: from `start` (the value's first byte) to the
/// line's final '}', that '}' and the whitespace around it excluded. Empty
/// when the line does not end in '}'.
std::string_view last_field_guess(std::string_view line, std::size_t start) {
    constexpr std::string_view kSpace = " \t\n\r";
    const std::size_t close = line.find_last_not_of(kSpace);
    if (close == std::string_view::npos || close <= start || line[close] != '}') return {};
    // line[start] is not whitespace, so the search stops at start at the latest.
    const std::size_t last = line.find_last_not_of(kSpace, close - 1);
    return line.substr(start, last + 1 - start);
}

/// The `model` field, read in place whatever the kind, which may come
/// later: a request that carries a model carries a valid one. With a
/// lookup, a value whose bytes the cache holds is not read at all. Every
/// key is a span from_json accepted as one whole value at this same depth,
/// so a text equal to a key is that value, and skipping it changes neither
/// what is accepted nor what it reads as. The guess is asked first (no read
/// at all); else the value is read and its exact span asked, when it
/// differs from the guess (a model that is not the last field).
void read_model(json::Reader& in, std::string_view line, const ModelLookup& lookup,
                Request& req) {
    (void)in.peek();  // to the value's first byte
    const std::size_t start = in.offset();
    std::string_view guess;
    if (lookup) {
        guess = last_field_guess(line, start);
        if (!guess.empty()) req.cached = lookup(guess);
        if (req.cached) {
            in.seek(start + guess.size());
            return;
        }
    }
    req.model = model::from_json(in);
    const std::string_view span = line.substr(start, in.offset() - start);
    // Both start at `start`: they differ exactly when their lengths do.
    if (lookup && span.size() != guess.size()) req.cached = lookup(span);
    if (!req.cached) req.model_text = span;
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

Request parse_request(const std::string& line, const ModelLookup& lookup) {
    json::Reader in(line);
    expect_object(in, "request must be a JSON object");
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
            case kModel: read_model(in, line, lookup, req); return;
        }
    });
    in.finish();
    if ((seen & (1u << kKind)) == 0) throw Error("request needs a string 'kind'");
    if (req.kind != RequestKind::Solve) {
        req.model.reset();
        req.cached.reset();
        req.model_text.clear();
    } else if (!req.model.has_value() && req.cached == nullptr) {
        throw Error("solve request needs a 'model' object");
    }
    return req;
}

std::string model_wire_text(const model::KernelModel& m) {
    json::Writer os;
    append_one_line(os, model::to_json(m));
    return os.take();
}

std::string serialize_request(const Request& request) {
    json::Writer os;
    os << "{\"kind\":\"" << kind_name(request.kind) << "\",\"id\":" << request.id
       << ",\"deadline_ms\":" << request.deadline_ms;
    if (request.rid != 0) os << ",\"rid\":\"" << hash_hex(request.rid) << "\"";
    os << ",\"options\":{\"threads\":" << request.params.threads
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
        append_one_line(os, response.metrics_json);
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
    // Two reads of the one line, because fields come in any order: the
    // envelope decides whether the solve fields are read at all. An ok:false,
    // ack or metrics response ignores them, so a malformed one beside it
    // still parses; the first read checks the whole line's syntax.
    Response r;
    std::string error, metrics;
    bool ack = false;
    bool ack_is_bool = true;  // `ack` is typed only on an ok response
    json::Reader head(line);
    expect_object(head, "response must be a JSON object");
    const std::uint32_t seen = head.fields(kResponseHeadKeys, [&](std::size_t i) {
        switch (static_cast<ResponseHeadKey>(i)) {
            case kRespId: r.id = read_int(head, "id"); return;
            case kRespRid: r.rid = hash_from_hex(string_or_skip(head)); return;
            case kRespOk:
                if (head.peek() != Value::Type::Bool) {
                    throw Error("response needs a boolean 'ok'");
                }
                r.ok = head.boolean();
                return;
            case kRespError: error = string_or_skip(head); return;
            case kRespAck:
                ack_is_bool = head.peek() == Value::Type::Bool;
                if (ack_is_bool) {
                    ack = head.boolean();
                } else {
                    head.skip();
                }
                return;
            case kRespMetrics: metrics = json::to_compact_string(head.value()); return;
        }
    });
    head.finish();
    if ((seen & (1u << kRespOk)) == 0) throw Error("response needs a boolean 'ok'");
    if (!r.ok) {
        r.error = std::move(error);
        return r;
    }
    if (!ack_is_bool) throw Error("field 'ack' must be a boolean");
    if (ack) {
        r.ack = true;
        return r;
    }
    if ((seen & (1u << kRespMetrics)) != 0) {
        r.metrics_json = std::move(metrics);
        return r;
    }

    json::Reader body(line);
    body.fields(kResponseBodyKeys, [&](std::size_t i) {
        const std::string_view key = kResponseBodyKeys[i];
        switch (static_cast<ResponseBodyKey>(i)) {
            case kStatus: {
                if (body.peek() != Value::Type::String) {
                    body.skip();
                    return;
                }
                const std::string name = body.string();
                const auto parsed = status_from_name(name);
                if (!parsed.has_value()) throw Error("unknown status '" + name + "'");
                r.status = *parsed;
                return;
            }
            case kMakespan: r.makespan = read_int32(body, key); return;
            case kSlotsUsed: r.slots_used = read_int32(body, key); return;
            case kStart: r.start = read_ints(body, key); return;
            case kSlot: r.slot = read_ints(body, key); return;
            case kCache: {
                const std::string cache = string_or_skip(body);
                r.cache_hit = cache == "hit";
                r.near_hit = cache == "near";
                return;
            }
            case kShed: r.shed = read_bool(body, key); return;
            case kSolveMs: r.solve_ms = static_cast<double>(read_int(body, key)); return;
            case kHash: r.model_hash = hash_from_hex(string_or_skip(body)); return;
            case kFlight: r.flight = string_or_skip(body); return;
        }
    });
    return r;
}

}  // namespace revec::svc
