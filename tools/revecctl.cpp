// revecctl — command-line client for a running revecd. Sends solve
// requests built from revecc --dump-model files, liveness pings, stats
// dumps of the daemon's metrics registry, and the drain-and-exit shutdown
// request. Responses are printed verbatim, one JSON line each, so shell
// pipelines (the CI daemon-smoke step greps them) see exactly what went
// over the wire. Every solve request carries a correlation rid (random by
// default, pinned with --rid) that the daemon stamps on every span emitted
// on the request's behalf. `top` renders the daemon's live telemetry —
// queue depth, cache hit rates, per-phase latency quantiles — one-shot or
// as a --watch delta view.
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "revec/model/json.hpp"
#include "revec/obs/metrics.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"
#include "revec/support/strings.hpp"
#include "revec/support/table.hpp"
#include "revec/svc/client.hpp"
#include "revec/svc/flags.hpp"
#include "revec/svc/protocol.hpp"

namespace {

void usage(std::ostream& os) { revec::svc::revecctl_usage(os); }

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw revec::Error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Random nonzero rid. Masked to 63 bits so the hex form round-trips
/// through the int64 span payloads without sign surprises.
std::uint64_t random_rid() {
    static std::mt19937_64 rng{std::random_device{}()};
    std::uint64_t rid = 0;
    while (rid == 0) rid = rng() & 0x7fffffffffffffffull;
    return rid;
}

std::uint64_t parse_rid(const std::string& hex) {
    std::uint64_t rid = 0;
    if (hex.empty() || hex.size() > 16) throw revec::Error("--rid must be 1..16 hex digits");
    for (const char c : hex) {
        rid <<= 4;
        if (c >= '0' && c <= '9') {
            rid |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            rid |= static_cast<std::uint64_t>(10 + c - 'a');
        } else {
            throw revec::Error("--rid must be lowercase hex");
        }
    }
    return rid & 0x7fffffffffffffffull;
}

// -- top: live telemetry rendering -------------------------------------------

/// The slice of a stats response `top` renders.
struct StatsSnapshot {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, std::pair<std::int64_t, std::vector<std::int64_t>>>
        hists;  ///< name -> (count, buckets)
};

StatsSnapshot parse_stats(const std::string& metrics_json) {
    const revec::json::Value doc = revec::json::parse(metrics_json);
    StatsSnapshot s;
    if (const revec::json::Value* counters = doc.find("counters");
        counters != nullptr && counters->is(revec::json::Value::Type::Object)) {
        for (const auto& [name, v] : counters->object) {
            s.counters[name] = static_cast<std::int64_t>(v.number);
        }
    }
    if (const revec::json::Value* gauges = doc.find("gauges");
        gauges != nullptr && gauges->is(revec::json::Value::Type::Object)) {
        for (const auto& [name, v] : gauges->object) s.gauges[name] = v.number;
    }
    if (const revec::json::Value* hists = doc.find("histograms");
        hists != nullptr && hists->is(revec::json::Value::Type::Object)) {
        for (const auto& [name, h] : hists->object) {
            std::pair<std::int64_t, std::vector<std::int64_t>> entry;
            if (const revec::json::Value* count = h.find("count"); count != nullptr) {
                entry.first = static_cast<std::int64_t>(count->number);
            }
            if (const revec::json::Value* buckets = h.find("buckets");
                buckets != nullptr && buckets->is(revec::json::Value::Type::Array)) {
                for (const revec::json::Value& b : buckets->array) {
                    entry.second.push_back(static_cast<std::int64_t>(b.number));
                }
            }
            s.hists[name] = std::move(entry);
        }
    }
    return s;
}

/// Subtract `prev` from `cur` counter- and bucket-wise (gauges stay
/// absolute — they are instantaneous readings, not accumulations).
StatsSnapshot stats_delta(const StatsSnapshot& cur, const StatsSnapshot& prev) {
    StatsSnapshot d = cur;
    for (auto& [name, v] : d.counters) {
        const auto it = prev.counters.find(name);
        if (it != prev.counters.end()) v -= it->second;
    }
    for (auto& [name, h] : d.hists) {
        const auto it = prev.hists.find(name);
        if (it == prev.hists.end()) continue;
        h.first -= it->second.first;
        for (std::size_t k = 0; k < h.second.size() && k < it->second.second.size();
             ++k) {
            h.second[k] -= it->second.second[k];
        }
    }
    return d;
}

std::int64_t counter_of(const StatsSnapshot& s, const std::string& name) {
    const auto it = s.counters.find(name);
    return it != s.counters.end() ? it->second : 0;
}

std::string pct(std::int64_t part, std::int64_t total) {
    if (total <= 0) return "-";
    return revec::format_fixed(100.0 * static_cast<double>(part) /
                                   static_cast<double>(total),
                               1) +
           "%";
}

void render_top(const StatsSnapshot& s, bool delta, std::ostream& out) {
    const auto gauge = [&](const char* name) {
        const auto it = s.gauges.find(name);
        return static_cast<std::int64_t>(it != s.gauges.end() ? it->second : 0.0);
    };
    out << (delta ? "delta since last refresh" : "totals since daemon start")
        << " — queue depth " << gauge("svc.queue.depth") << ", cache "
        << gauge("svc.cache.size") << ", pool completed " << counter_of(s, "svc.pool.completed") << "\n";

    const std::int64_t reqs = counter_of(s, "svc.req.count");
    const std::int64_t shed = counter_of(s, "svc.queue.shed");
    const std::int64_t hit = counter_of(s, "svc.cache.hit");
    const std::int64_t near = counter_of(s, "svc.cache.near_hit");
    const std::int64_t miss = counter_of(s, "svc.cache.miss");
    const std::int64_t vfail = counter_of(s, "svc.cache.verify_fail");
    out << "requests " << reqs << ", shed " << shed << " (" << pct(shed, reqs)
        << "), errors " << counter_of(s, "svc.req.errors") << "\n";
    out << "cache: hit " << hit << " (" << pct(hit, reqs) << "), near " << near << " ("
        << pct(near, reqs) << "), miss " << miss << ", verify-fail " << vfail << "\n";
    out << "flight: recorded " << counter_of(s, "svc.flight.recorded") << ", dumped "
        << counter_of(s, "svc.flight.dump") << ", dropped "
        << counter_of(s, "svc.flight.drop") << "\n\n";

    static const std::array<std::pair<const char*, const char*>, 6> kPhases = {{
        {"parse", "svc.phase.parse_ms"},
        {"lookup", "svc.phase.lookup_ms"},
        {"adapt", "svc.phase.adapt_ms"},
        {"queue wait", "svc.phase.queue_wait_ms"},
        {"solve", "svc.phase.solve_ms"},
        {"request total", "svc.req.latency_ms"},
    }};
    revec::Table table({"phase", "count", "p50 ms", "p95 ms", "p99 ms"});
    for (const auto& [label, metric] : kPhases) {
        const auto it = s.hists.find(metric);
        if (it == s.hists.end() || it->second.first <= 0) continue;
        const auto& [count, buckets] = it->second;
        table.add_row(
            {label, std::to_string(count),
             revec::format_fixed(revec::obs::histogram_quantile(buckets, 0.50), 2),
             revec::format_fixed(revec::obs::histogram_quantile(buckets, 0.95), 2),
             revec::format_fixed(revec::obs::histogram_quantile(buckets, 0.99), 2)});
    }
    if (table.rows() > 0) {
        table.print(out);
    } else {
        out << "(no phase latency samples yet)\n";
    }
}

int run_top(revec::svc::Client& client, int watch, std::int64_t interval_ms) {
    StatsSnapshot prev;
    bool have_prev = false;
    const int refreshes = watch > 0 ? watch : 1;
    for (int i = 0; i < refreshes; ++i) {
        if (i > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
        }
        revec::svc::Request req;
        req.kind = revec::svc::RequestKind::Stats;
        req.id = i + 1;
        const revec::svc::Response resp = revec::svc::parse_response(
            client.roundtrip_line(revec::svc::serialize_request(req)));
        if (!resp.ok) {
            std::cerr << "revecctl: stats request failed: " << resp.error << "\n";
            return 2;
        }
        const StatsSnapshot cur = parse_stats(resp.metrics_json);
        if (watch > 0 && i > 0) std::cout << "\n";
        // The first --watch refresh shows absolute totals (there is no
        // previous sample to diff against); later ones show deltas.
        if (have_prev) {
            render_top(stats_delta(cur, prev), /*delta=*/true, std::cout);
        } else {
            render_top(cur, /*delta=*/false, std::cout);
        }
        prev = cur;
        have_prev = watch > 0;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::string socket_path;
    std::string command;
    std::vector<std::string> models;
    revec::svc::SolveParams params;
    std::int64_t deadline_ms = -1;
    std::uint64_t rid_base = 0;  // 0 = fresh random rid per request
    int watch = 0;
    std::int64_t interval_ms = 1000;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(std::cout);
                return 0;
            } else if (revec::starts_with(arg, "--socket=")) {
                socket_path = arg.substr(9);
            } else if (revec::starts_with(arg, "--deadline-ms=")) {
                deadline_ms = revec::parse_int(arg.substr(14));
            } else if (revec::starts_with(arg, "--threads=")) {
                params.threads = static_cast<int>(revec::parse_int(arg.substr(10)));
            } else if (revec::starts_with(arg, "--seed=")) {
                params.seed =
                    static_cast<std::uint32_t>(revec::parse_int(arg.substr(7)));
            } else if (arg == "--no-warm-start") {
                params.warm_start = false;
            } else if (arg == "--heuristic-only") {
                params.heuristic_only = true;
            } else if (revec::starts_with(arg, "--reuse=")) {
                const auto mode = revec::svc::reuse_from_name(arg.substr(8));
                if (!mode.has_value()) {
                    std::cerr << "revecctl: bad --reuse (off|exact|near)\n";
                    return 1;
                }
                params.reuse = *mode;
            } else if (revec::starts_with(arg, "--rid=")) {
                rid_base = parse_rid(arg.substr(6));
            } else if (revec::starts_with(arg, "--watch=")) {
                watch = static_cast<int>(revec::parse_int(arg.substr(8)));
            } else if (revec::starts_with(arg, "--interval-ms=")) {
                interval_ms = revec::parse_int(arg.substr(14));
            } else if (revec::starts_with(arg, "--")) {
                std::cerr << "revecctl: unknown flag '" << arg << "'";
                const std::string suggestion =
                    revec::closest_flag(arg, revec::svc::revecctl_known_flags());
                if (!suggestion.empty()) std::cerr << " — did you mean '" << suggestion << "'?";
                std::cerr << "\n";
                usage(std::cerr);
                return 1;
            } else if (command.empty()) {
                command = arg;
            } else if (command == "solve") {
                models.push_back(arg);
            } else {
                std::cerr << "revecctl: unexpected argument '" << arg << "'\n";
                return 1;
            }
        }
        if (socket_path.empty() || command.empty()) {
            std::cerr << "revecctl: --socket=PATH and a command are required\n";
            usage(std::cerr);
            return 1;
        }

        if (watch < 0 || interval_ms < 0) {
            std::cerr << "revecctl: --watch and --interval-ms must be >= 0\n";
            return 1;
        }

        revec::svc::Client client(socket_path);
        if (command == "top") return run_top(client, watch, interval_ms);

        std::vector<revec::svc::Request> requests;
        std::int64_t next_id = 1;

        if (command == "ping" || command == "stats" || command == "shutdown") {
            revec::svc::Request req;
            req.kind = command == "ping"    ? revec::svc::RequestKind::Ping
                       : command == "stats" ? revec::svc::RequestKind::Stats
                                            : revec::svc::RequestKind::Shutdown;
            req.id = next_id++;
            requests.push_back(std::move(req));
        } else if (command == "solve") {
            if (models.empty()) {
                std::cerr << "revecctl: solve needs at least one MODEL.json\n";
                return 1;
            }
            for (const std::string& path : models) {
                revec::svc::Request req;
                req.kind = revec::svc::RequestKind::Solve;
                req.id = next_id++;
                // Client-assigned correlation rid: --rid pins the base (a
                // batch counts up from it, so dumps stay distinguishable),
                // otherwise each request draws a fresh random one.
                req.rid = rid_base != 0
                              ? ((rid_base + static_cast<std::uint64_t>(req.id) - 1) &
                                 0x7fffffffffffffffull)
                              : random_rid();
                req.deadline_ms = deadline_ms;
                req.params = params;
                req.model = revec::model::from_json(read_file(path));
                requests.push_back(std::move(req));
            }
        } else {
            std::cerr << "revecctl: unknown command '" << command << "'\n";
            usage(std::cerr);
            return 1;
        }

        bool all_ok = true;
        for (const revec::svc::Request& req : requests) {
            const std::string line =
                client.roundtrip_line(revec::svc::serialize_request(req));
            std::cout << line << '\n';
            const revec::svc::Response resp = revec::svc::parse_response(line);
            all_ok = all_ok && resp.ok;
        }
        return all_ok ? 0 : 2;
    } catch (const std::exception& e) {
        std::cerr << "revecctl: " << e.what() << '\n';
        return 1;
    }
}
