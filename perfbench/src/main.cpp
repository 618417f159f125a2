// perfbench: set up one workload from its seed, run closed-loop
// passes over it for the requested time, check every output, and print one
// JSON result line. --trace 0 reports the end-to-end metrics; --trace 1
// interleaves untraced and traced passes and reports the per-layer
// attribution, with the tracing overhead measured against the untraced
// passes of the same run. See README.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 21;
// Operation times grow as the probe's slowdown to this power (README.md,
// "Host speed"): fitted over 30 s runs, 1.7 for the exact solver and
// 1.0-1.3 for the heuristic compiles.
constexpr double kSlowdownExponent = 1.5;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::stoull(value);
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::stod(value);
            have_seconds = a.seconds > 0.0;
        } else if (key == "--trace") {
            a.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace) {
        throw std::invalid_argument(
            "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
    }
    return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "paper_prove") return make_paper_prove(seed);
    if (name == "fast_compile") return make_fast_compile(seed);
    if (name == "serve_edits") return make_serve_edits(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Quantile with linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

/// Peak resident set of this program, in kB: VmHWM, which starts afresh at
/// exec (getrusage's ru_maxrss keeps the larger peak of the process that
/// forked it).
double peak_rss_kb() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double value_or_zero(const std::map<std::string, double>& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

/// Layers whose self times partition an operation's wall time, and the
/// per-layer metric each one reports as ms per operation.
const std::vector<std::pair<const char*, const char*>>& attributed_layers() {
    static const std::vector<std::pair<const char*, const char*>> kLayers = {
        {"dsl", "dsl.trace_ms"},
        {"ir", "ir.merge_ms"},
        {"model.lower", "model.lower_ms"},
        {"sched", "sched.self_ms"},
        {"heur", "heur.ladder_ms"},
        {"cp", "cp.search_ms"},
        {"model.check", "model.check_ms"},
        {"codegen.generate", "codegen.generate_ms"},
        {"codegen.encode", "codegen.encode_ms"},
        {"sim", "sim.run_ms"},
        {"pipeline", "pipeline.modulo_ms"},
        {"svc", "svc.self_ms"},
        {"svc.adapt", "heur.adapt_ms"},
        {"svc.queue", "svc.queue_wait_ms"},
    };
    return kLayers;
}

/// Every per-layer metric, in report order (BENCHMARK.json lists the same).
const std::vector<std::string>& per_layer_names() {
    static const std::vector<std::string> kNames = [] {
        std::vector<std::string> names;
        for (const auto& [layer, metric] : attributed_layers()) names.emplace_back(metric);
        for (const char* n :
             {"sched.solve_ms", "layer.op_ms", "layer.residual_ms", "trace.overhead_pct",
              "dsl.ir_nodes", "ir.nodes_removed", "codegen.bytes", "sim.cycles",
              "sim.reconfigs", "heur.list_ms", "heur.alloc_ms", "heur.rungs_tried",
              "heur.rung_ok_ratio", "cp.nodes", "cp.failures", "cp.cutoff_prunes",
              "cp.propagations", "cp.wakeups", "cp.trail_bytes", "cp.prop_useful_ratio",
              "cp.proven_ratio", "pipeline.modulo_ii", "inputs.known_bad", "host.slowdown_ratio",
              "svc.parse_ms", "svc.serialize_ms", "model.hash_ms", "model.fingerprint_ms",
              "model.diff_ms", "heur.adapt_ok_ratio", "svc.handle_ms.hit", "svc.handle_ms.near", "svc.handle_ms.miss",
              "svc.handle_ms.shed", "svc.hit_ratio", "svc.near_ratio", "svc.miss_ratio",
              "svc.shed_ratio"}) {
            names.emplace_back(n);
        }
        return names;
    }();
    return kNames;
}

/// Unit of a metric, from its name: ops_per_cpu_s and the _s, _mb, _ratio
/// and _pct suffixes, "_ms" anywhere, and bytes and cycles; counts otherwise.
std::string unit_of(const std::string& name) {
    const auto ends = [&](const std::string& suffix) {
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    if (name == "ops_per_cpu_s") return "1/s";
    if (name.find("_ms") != std::string::npos) return "ms";
    if (ends("_s")) return "s";
    if (ends("_mb")) return "MB";
    if (ends("_ratio")) return "ratio";
    if (ends("_pct")) return "%";
    if (name.find("bytes") != std::string::npos) return "bytes";
    if (name.find("cycles") != std::string::npos) return "cycles";
    return "count";
}

const std::vector<std::string>& end_to_end_names() {
    static const std::vector<std::string> kNames = {
        "suite_cpu_s", "op_cpu_ms_geomean",   "op_cpu_ms_p50",  "op_cpu_ms_p99", "ops_per_cpu_s",
        "setup_s",     "makespan_cycles_sum", "code_bytes_sum", "peak_rss_mb"};
    return kNames;
}

std::map<std::string, double> end_to_end(const std::vector<PassResult>& passes,
                                         const std::vector<double>& setup_s, double host_speed) {
    // Times are process CPU times multiplied by `host_speed` (README.md,
    // "Host speed"). Statistics are taken per pass and the median over
    // passes is reported, so a burst of machine noise moves one pass, not
    // the figure.
    std::vector<double> pass_s, geomean, p50, p99, rate;
    for (const PassResult& p : passes) {
        const auto ops = static_cast<double>(p.op_cpu_ms.size());
        const double cpu_s = sum(p.op_cpu_ms) * host_speed / 1000.0;
        pass_s.push_back(cpu_s);
        double log_sum = 0.0;
        for (const double ms : p.op_cpu_ms) log_sum += std::log(ms * host_speed);
        geomean.push_back(std::exp(log_sum / ops));
        p50.push_back(quantile(p.op_cpu_ms, 0.50) * host_speed);
        p99.push_back(quantile(p.op_cpu_ms, 0.99) * host_speed);
        rate.push_back(ops / cpu_s);
    }
    const auto& exact = passes.front().exact;
    return {
        {"suite_cpu_s", median(pass_s)},
        {"op_cpu_ms_geomean", median(geomean)},
        {"op_cpu_ms_p50", median(p50)},
        {"op_cpu_ms_p99", median(p99)},
        {"ops_per_cpu_s", median(rate)},
        {"makespan_cycles_sum", value_or_zero(exact, "makespan_cycles_sum")},
        {"code_bytes_sum", value_or_zero(exact, "code_bytes_sum")},
        {"setup_s", median(setup_s) * host_speed},
        {"peak_rss_mb", peak_rss_kb() / 1024.0},
    };
}

std::map<std::string, double> per_layer(const std::vector<PassResult>& plain,
                                        const std::vector<PassResult>& traced, bool& sane) {
    Tracer all;
    std::map<std::string, double> extra;
    double op_sum = 0.0;
    double ops = 0.0;
    std::vector<double> traced_pass, plain_pass;
    for (const PassResult& p : traced) {
        all.merge(p.layers);
        for (const auto& [k, v] : p.traced) extra[k] += v;
        op_sum += sum(p.op_ms);
        ops += static_cast<double>(p.op_ms.size());
        traced_pass.push_back(sum(p.op_cpu_ms));
    }
    for (const PassResult& p : plain) plain_pass.push_back(sum(p.op_cpu_ms));

    std::map<std::string, double> m;
    double attributed = 0.0;
    for (const auto& [layer, metric] : attributed_layers()) {
        const double ms = value_or_zero(all.self_ms, layer);
        m[metric] = ms / ops;
        attributed += ms;
    }
    // The whole solve, wherever it ran: schedule_model's own time plus the
    // ladder and the search inside it (inside the service on serve_edits).
    m["sched.solve_ms"] = m["sched.self_ms"] + m["heur.ladder_ms"] + m["cp.search_ms"];
    m["layer.op_ms"] = op_sum / ops;
    m["layer.residual_ms"] = (op_sum - attributed) / ops;
    m["trace.overhead_pct"] = (median(traced_pass) / median(plain_pass) - 1.0) * 100.0;
    // Spans nest inside the operation, so their self times can only fall
    // short of its wall time (by the glue between calls), never exceed it.
    if (op_sum - attributed < -0.01 * op_sum) {
        std::cerr << "perfbench: layer self times exceed operation wall time\n";
        sane = false;
    }

    const auto& x = traced.front().exact;
    const auto get = [&](const char* key) { return value_or_zero(x, key); };
    for (const char* key :
         {"dsl.ir_nodes", "ir.nodes_removed", "sim.cycles", "sim.reconfigs", "heur.rungs_tried",
          "cp.nodes", "cp.failures", "cp.cutoff_prunes", "cp.propagations", "cp.wakeups",
          "cp.trail_bytes", "pipeline.modulo_ii", "inputs.known_bad"}) {
        m[key] = get(key);
    }
    m["codegen.bytes"] = get("code_bytes_sum");
    m["heur.rung_ok_ratio"] = ratio(get("heur.rungs_ok"), get("heur.rungs_tried"));
    m["cp.prop_useful_ratio"] = ratio(get("cp.domain_changes"), get("cp.propagations"));
    m["cp.proven_ratio"] = ratio(get("cp.proven"), get("cp.solves"));
    m["heur.adapt_ok_ratio"] =
        ratio(get("svc.adapted"), get("svc.adapted") + get("svc.adapt_rejected"));
    const double passes = static_cast<double>(traced.size());
    for (const char* cls : {"hit", "near", "miss", "shed"}) {
        const std::string n = std::string("svc.") + cls;
        m[n + "_ratio"] = ratio(get(n.c_str()), get("svc.requests"));
        m["svc.handle_ms." + std::string(cls)] =
            ratio(value_or_zero(extra, "svc.handle_ms." + std::string(cls)),
                  get(n.c_str()) * passes);
    }
    // Sub-call costs measured beside the operation (see README): heur per
    // compile, the service's own calls per request.
    m["heur.list_ms"] = value_or_zero(extra, "heur.list_ms") / ops;
    m["heur.alloc_ms"] = value_or_zero(extra, "heur.alloc_ms") / ops;
    for (const char* key : {"svc.parse_ms", "svc.serialize_ms", "model.hash_ms",
                            "model.fingerprint_ms", "model.diff_ms"}) {
        m[key] = value_or_zero(extra, key) / ops;
    }
    return m;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<std::string>& names,
                  const std::map<std::string, double>& values) {
    std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < names.size(); ++i) {
        double v = value_or_zero(values, names[i]);
        if (!std::isfinite(v)) v = 0.0;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += (i == 0 ? "\"" : ", \"") + names[i] + "\": {\"value\": " + buf +
               ", \"unit\": \"" + unit_of(names[i]) + "\"}";
    }
    std::cout << out << "}}" << std::endl;
}

/// Keep this thread, and the threads it starts (the service's pool
/// worker), on the CPU it runs on now, so the probe times the CPU the
/// operations run on (README.md, "Host speed").
void stay_on_this_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

int run(const Args& args) {
    stay_on_this_cpu();
    const std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
    HostProbe probe;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupReps; ++i) {
        probe.between_ops();
        const Stopwatch time;
        workload->setup();
        setup_s.push_back(time.cpu_ms() / 1000.0);
    }

    // Closed loop: passes back to back until the time is up. A traced run
    // alternates untraced and traced passes, so both see the same machine.
    std::vector<PassResult> plain, traced;
    const auto start = Clock::now();
    while (ms_since(start) < args.seconds * 1000.0 || plain.empty() ||
           (args.trace && traced.empty())) {
        const bool trace_this = args.trace && traced.size() < plain.size();
        (trace_this ? traced : plain).push_back(workload->run_pass(trace_this, probe));
    }

    // Every output checked, and the deterministic counters repeat exactly.
    bool correct = true;
    std::int64_t attempted = 0, failed = 0;
    std::map<std::string, double> first;
    for (const std::vector<PassResult>* set : {&plain, &traced}) {
        for (const PassResult& p : *set) {
            attempted += static_cast<std::int64_t>(p.op_ms.size());
            failed += p.failed;
            for (const auto& [key, v] : p.exact) {
                const auto [it, fresh] = first.emplace(key, v);
                if (!fresh && it->second != v) {
                    std::cerr << "perfbench: " << key << " changed between passes: "
                              << it->second << " then " << v << "\n";
                    correct = false;
                }
            }
        }
    }
    correct = correct && failed == 0;

    if (!args.trace) {
        const double host_speed = std::pow(probe.slowdown(), -kSlowdownExponent);
        print_result(correct, attempted, failed, end_to_end_names(),
                     end_to_end(plain, setup_s, host_speed));
    } else {
        auto m = per_layer(plain, traced, correct);
        m["host.slowdown_ratio"] = probe.slowdown();
        print_result(correct, attempted, failed, per_layer_names(), m);
    }
    return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(perfbench::parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
