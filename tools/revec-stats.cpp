// revec-stats — offline reader for the telemetry the tools emit. For
// traces (revecc --trace=F, revecd flight dumps): validates the schema
// (span nesting, timestamp monotonicity) and prints a phase/search-tree
// breakdown; --rid=HEX narrows the view to one service request's story
// (the spans and instants carrying that correlation id). For metrics
// (revecc --metrics=F, revecd --metrics=F): `diff` compares a current
// document against a checked-in baseline under per-metric tolerance rules
// — the CI perf-telemetry gate. Exits 2 on trace validation failure, 3 on
// a metrics diff failure.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "revec/obs/trace_read.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"
#include "revec/support/strings.hpp"
#include "revec/support/table.hpp"

namespace {

struct SpanAgg {
    std::int64_t count = 0;
    std::int64_t total_us = 0;
};

std::string ms(std::int64_t us) { return revec::format_fixed(us / 1000.0, 2); }

std::int64_t parse_rid_hex(const std::string& hex) {
    std::uint64_t rid = 0;
    if (hex.empty() || hex.size() > 16) {
        throw revec::Error("--rid must be 1..16 hex digits");
    }
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
    return static_cast<std::int64_t>(rid);
}

/// Keep only the events that tell `rid`'s story: any span subtree whose
/// begin event carries a matching "rid" arg, plus bare instants carrying
/// it. Whole balanced subtrees are kept, so the filtered trace still
/// validates. Tracks left empty are dropped.
revec::obs::ParsedTrace filter_rid(const revec::obs::ParsedTrace& trace,
                                   std::int64_t rid) {
    revec::obs::ParsedTrace out;
    out.warnings = trace.warnings;
    for (const revec::obs::ParsedTrack& track : trace.tracks) {
        revec::obs::ParsedTrack kept;
        kept.name = track.name;
        std::size_t keep_below = 0;  // stack depth at which a kept subtree opened
        bool keeping = false;
        std::size_t depth = 0;
        for (const revec::obs::ParsedEvent& e : track.events) {
            const auto it = e.args.find("rid");
            const bool matches = it != e.args.end() && it->second == rid;
            if (e.kind == 'B') {
                ++depth;
                if (!keeping && matches) {
                    keeping = true;
                    keep_below = depth;
                }
                if (keeping) kept.events.push_back(e);
            } else if (e.kind == 'E') {
                if (keeping) kept.events.push_back(e);
                if (keeping && depth == keep_below) keeping = false;
                if (depth > 0) --depth;
            } else if (keeping || matches) {
                kept.events.push_back(e);
            }
        }
        if (!kept.events.empty()) out.tracks.push_back(std::move(kept));
    }
    return out;
}

int run(const std::string& path, bool validate_only, const std::string& rid_hex,
        std::ostream& out) {
    revec::obs::ParsedTrace trace = revec::obs::load_trace(path);
    for (const std::string& w : trace.warnings) {
        std::cerr << "revec-stats: warning: " << w << "\n";
    }
    const std::vector<std::string> problems = revec::obs::validate_trace(trace);
    if (!problems.empty()) {
        for (const std::string& p : problems) std::cerr << "revec-stats: " << p << "\n";
        return 2;
    }
    if (!rid_hex.empty()) {
        trace = filter_rid(trace, parse_rid_hex(rid_hex));
        if (trace.tracks.empty()) {
            out << path << ": no events carry rid " << rid_hex << "\n";
            return 0;
        }
        out << "rid " << rid_hex << " — ";
    }
    if (validate_only) {
        out << path << ": ok (" << trace.tracks.size() << " tracks, "
            << trace.total_events() << " events)\n";
        return 0;
    }

    // Aggregate spans by name (durations from matched begin/end pairs —
    // validation above guarantees stack discipline) and count instants.
    std::map<std::string, SpanAgg> spans;
    std::map<std::string, std::int64_t> instants;
    struct TrackAgg {
        std::int64_t nodes = 0;      // "node" instants, else span-end payload
        std::int64_t failures = 0;   // "fail" instants
        std::int64_t solutions = 0;  // "solution" instants
        std::int64_t max_depth = 0;
    };
    std::vector<TrackAgg> per_track(trace.tracks.size());

    for (std::size_t t = 0; t < trace.tracks.size(); ++t) {
        const revec::obs::ParsedTrack& track = trace.tracks[t];
        TrackAgg& agg = per_track[t];
        std::vector<const revec::obs::ParsedEvent*> open;
        bool node_instants = false;
        for (const revec::obs::ParsedEvent& e : track.events) {
            if (e.kind == 'B') {
                open.push_back(&e);
            } else if (e.kind == 'E') {
                SpanAgg& s = spans[e.name];
                ++s.count;
                s.total_us += e.ts_us - open.back()->ts_us;
                open.pop_back();
                // Phase-level traces carry the node count on the search /
                // worker span-end payload instead of per-node events. (The
                // replay span's nodes are already included in the enclosing
                // search span's payload.)
                if (!node_instants && (e.name == "search" || e.name == "worker")) {
                    const auto it = e.args.find("nodes");
                    if (it != e.args.end()) agg.nodes += it->second;
                }
            } else {
                ++instants[e.name];
                const auto depth = e.args.find("depth");
                if (depth != e.args.end() && depth->second > agg.max_depth) {
                    agg.max_depth = depth->second;
                }
                if (e.name == "node") {
                    if (!node_instants) agg.nodes = 0;  // switch to exact counting
                    node_instants = true;
                    ++agg.nodes;
                } else if (e.name == "fail") {
                    ++agg.failures;
                } else if (e.name == "solution") {
                    ++agg.solutions;
                }
            }
        }
    }

    out << path << ": " << trace.tracks.size() << " tracks, " << trace.total_events()
        << " events\n\n";

    revec::Table phases({"phase", "count", "total ms", "mean ms"});
    for (const auto& [name, agg] : spans) {
        phases.add_row({name, std::to_string(agg.count), ms(agg.total_us),
                        ms(agg.count > 0 ? agg.total_us / agg.count : 0)});
    }
    if (phases.rows() > 0) {
        phases.print(out);
        out << "\n";
    }

    revec::Table tree({"track", "events", "nodes", "failures", "solutions", "max depth"});
    for (std::size_t t = 0; t < trace.tracks.size(); ++t) {
        const TrackAgg& agg = per_track[t];
        tree.add_row({trace.tracks[t].name, std::to_string(trace.tracks[t].events.size()),
                      std::to_string(agg.nodes), std::to_string(agg.failures),
                      std::to_string(agg.solutions), std::to_string(agg.max_depth)});
    }
    tree.print(out);

    if (!instants.empty()) {
        out << "\n";
        revec::Table events({"event", "count"});
        for (const auto& [name, count] : instants) {
            events.add_row({name, std::to_string(count)});
        }
        events.print(out);
    }

    // LNS summary: rounds come from the lns_round spans, verdicts from the
    // accept/reject instants the repair stage fires once per round.
    const auto lns_rounds = spans.find("lns_round");
    if (lns_rounds != spans.end()) {
        const std::int64_t accepted =
            instants.count("lns_accept") ? instants.at("lns_accept") : 0;
        const std::int64_t rejected =
            instants.count("lns_reject") ? instants.at("lns_reject") : 0;
        out << "\n";
        revec::Table lns({"lns rounds", "accepted", "rejected", "total ms"});
        lns.add_row({std::to_string(lns_rounds->second.count), std::to_string(accepted),
                     std::to_string(rejected), ms(lns_rounds->second.total_us)});
        lns.print(out);
    }
    return 0;
}

// -- diff: the metrics regression gate ---------------------------------------

/// How one metric is compared. Defaults per section: counters and labels
/// `exact`, gauges and histograms `ignore` (instantaneous readings and
/// latency distributions are machine-dependent). --rule=GLOB=SPEC
/// overrides; the LAST matching rule wins.
struct DiffRule {
    std::string pattern;
    enum class Kind { Exact, Ignore, Pct, Abs } kind = Kind::Exact;
    double tolerance = 0.0;
};

DiffRule parse_rule(const std::string& text) {
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0) {
        throw revec::Error("--rule needs GLOB=SPEC, got '" + text + "'");
    }
    DiffRule rule;
    rule.pattern = text.substr(0, eq);
    const std::string spec = text.substr(eq + 1);
    if (spec == "exact") {
        rule.kind = DiffRule::Kind::Exact;
    } else if (spec == "ignore") {
        rule.kind = DiffRule::Kind::Ignore;
    } else if (revec::starts_with(spec, "pct:")) {
        rule.kind = DiffRule::Kind::Pct;
        rule.tolerance = revec::parse_double(spec.substr(4));
    } else if (revec::starts_with(spec, "abs:")) {
        rule.kind = DiffRule::Kind::Abs;
        rule.tolerance = revec::parse_double(spec.substr(4));
    } else {
        throw revec::Error("bad rule spec '" + spec +
                           "' (exact | ignore | pct:N | abs:N)");
    }
    return rule;
}

/// One metrics document flattened for comparison. Histograms are
/// represented by their sample count under "<name>.count" so a rule can
/// opt a phase's traffic volume into the gate without gating its shape.
struct FlatMetrics {
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, std::string> labels;
    std::map<std::string, std::int64_t> hist_counts;
};

FlatMetrics load_metrics(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw revec::Error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    const revec::json::Value doc = revec::json::parse(ss.str());
    if (!doc.is(revec::json::Value::Type::Object)) {
        throw revec::Error(path + ": not a metrics JSON document");
    }
    FlatMetrics m;
    const auto section = [&](const char* name) -> const revec::json::Value* {
        const revec::json::Value* v = doc.find(name);
        return v != nullptr && v->is(revec::json::Value::Type::Object) ? v : nullptr;
    };
    if (const revec::json::Value* counters = section("counters")) {
        for (const auto& [name, v] : counters->object) {
            m.counters[name] = static_cast<std::int64_t>(v.number);
        }
    }
    if (const revec::json::Value* gauges = section("gauges")) {
        for (const auto& [name, v] : gauges->object) m.gauges[name] = v.number;
    }
    if (const revec::json::Value* labels = section("labels")) {
        for (const auto& [name, v] : labels->object) m.labels[name] = v.str;
    }
    if (const revec::json::Value* hists = section("histograms")) {
        for (const auto& [name, v] : hists->object) {
            const revec::json::Value* count = v.find("count");
            m.hist_counts[name + ".count"] =
                count != nullptr ? static_cast<std::int64_t>(count->number) : 0;
        }
    }
    return m;
}

const DiffRule* last_matching(const std::vector<DiffRule>& rules,
                              const std::string& name) {
    const DiffRule* hit = nullptr;
    for (const DiffRule& r : rules) {
        if (revec::glob_match(r.pattern, name)) hit = &r;
    }
    return hit;
}

bool within(DiffRule::Kind kind, double tolerance, double base, double cur) {
    switch (kind) {
        case DiffRule::Kind::Exact: return base == cur;
        case DiffRule::Kind::Ignore: return true;
        case DiffRule::Kind::Pct:
            if (base == 0.0) return cur == 0.0;
            return std::abs(cur - base) <= tolerance / 100.0 * std::abs(base);
        case DiffRule::Kind::Abs: return std::abs(cur - base) <= tolerance;
    }
    REVEC_UNREACHABLE("bad DiffRule::Kind");
}

int run_diff(const std::string& baseline_path, const std::string& current_path,
             const std::vector<DiffRule>& rules, std::ostream& out) {
    const FlatMetrics baseline = load_metrics(baseline_path);
    const FlatMetrics current = load_metrics(current_path);
    std::vector<std::string> failures;
    std::vector<std::string> notes;

    // Numeric sections share one comparator; `fallback` is the section
    // default applied when no --rule matches the metric name.
    const auto compare_numeric = [&](const char* section,
                                     const std::map<std::string, std::int64_t>* base_i,
                                     const std::map<std::string, double>* base_d,
                                     const std::map<std::string, std::int64_t>* cur_i,
                                     const std::map<std::string, double>* cur_d,
                                     DiffRule::Kind fallback) {
        const auto base_names = [&]() {
            std::vector<std::string> names;
            if (base_i != nullptr) {
                for (const auto& [n, v] : *base_i) names.push_back(n);
            } else {
                for (const auto& [n, v] : *base_d) names.push_back(n);
            }
            return names;
        }();
        for (const std::string& name : base_names) {
            DiffRule::Kind kind = fallback;
            double tolerance = 0.0;
            if (const DiffRule* rule = last_matching(rules, name); rule != nullptr) {
                kind = rule->kind;
                tolerance = rule->tolerance;
            }
            if (kind == DiffRule::Kind::Ignore) continue;
            const double base = base_i != nullptr
                                    ? static_cast<double>(base_i->at(name))
                                    : base_d->at(name);
            const bool in_current = cur_i != nullptr ? cur_i->count(name) > 0
                                                     : cur_d->count(name) > 0;
            if (!in_current) {
                failures.push_back(std::string(section) + " " + name +
                                   ": missing from current");
                continue;
            }
            const double cur = cur_i != nullptr ? static_cast<double>(cur_i->at(name))
                                                : cur_d->at(name);
            if (!within(kind, tolerance, base, cur)) {
                std::ostringstream os;
                os << section << " " << name << ": baseline " << base << ", current "
                   << cur;
                failures.push_back(os.str());
            }
        }
        // New metrics are informational — a fresh counter is growth, not a
        // regression; pin it by re-baselining.
        const auto note_new = [&](const auto& cur_map, const auto& base_map) {
            for (const auto& [name, v] : cur_map) {
                if (base_map.count(name) == 0) {
                    notes.push_back(std::string(section) + " " + name +
                                    ": new in current");
                }
            }
        };
        if (cur_i != nullptr) {
            note_new(*cur_i, *base_i);
        } else {
            note_new(*cur_d, *base_d);
        }
    };

    compare_numeric("counter", &baseline.counters, nullptr, &current.counters, nullptr,
                    DiffRule::Kind::Exact);
    compare_numeric("gauge", nullptr, &baseline.gauges, nullptr, &current.gauges,
                    DiffRule::Kind::Ignore);
    compare_numeric("histogram", &baseline.hist_counts, nullptr, &current.hist_counts,
                    nullptr, DiffRule::Kind::Ignore);

    for (const auto& [name, base] : baseline.labels) {
        DiffRule::Kind kind = DiffRule::Kind::Exact;
        if (const DiffRule* rule = last_matching(rules, name); rule != nullptr) {
            kind = rule->kind;
        }
        if (kind == DiffRule::Kind::Ignore) continue;
        const auto it = current.labels.find(name);
        if (it == current.labels.end()) {
            failures.push_back("label " + name + ": missing from current");
        } else if (it->second != base) {
            failures.push_back("label " + name + ": baseline \"" + base +
                               "\", current \"" + it->second + "\"");
        }
    }
    for (const auto& [name, v] : current.labels) {
        if (baseline.labels.count(name) == 0) {
            notes.push_back("label " + name + ": new in current");
        }
    }

    for (const std::string& n : notes) out << "note: " << n << "\n";
    for (const std::string& f : failures) out << "FAIL: " << f << "\n";
    out << current_path << " vs " << baseline_path << ": " << failures.size()
        << " failure(s), " << notes.size() << " new metric(s)\n";
    return failures.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
    std::string path;
    std::string rid_hex;
    bool validate_only = false;
    bool diff_mode = false;
    std::vector<std::string> diff_paths;
    std::vector<DiffRule> rules;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                std::cout
                    << "usage: revec-stats <trace.json|trace.jsonl> [--validate-only]\n"
                       "                   [--rid=HEX]\n"
                       "       revec-stats diff <baseline.json> <current.json>\n"
                       "                   [--rule=GLOB=SPEC]...\n\n"
                       "Trace mode validates a trace (revecc --trace, revecd flight\n"
                       "dumps) and prints a phase/search-tree breakdown; --rid=HEX\n"
                       "narrows it to one service request's spans. Exits 2 on schema\n"
                       "validation failure.\n\n"
                       "Diff mode compares two metrics JSON documents under per-metric\n"
                       "tolerance rules. SPEC is exact | ignore | pct:N | abs:N; the\n"
                       "last matching GLOB wins. Defaults: counters and labels exact,\n"
                       "gauges and histograms ignore. A baseline metric missing from\n"
                       "current fails; a new current metric is informational. Exits 3\n"
                       "when any metric is out of tolerance.\n";
                return 0;
            }
            if (arg == "diff" && !diff_mode && path.empty()) {
                diff_mode = true;
            } else if (revec::starts_with(arg, "--rule=")) {
                rules.push_back(parse_rule(arg.substr(7)));
            } else if (revec::starts_with(arg, "--rid=")) {
                rid_hex = arg.substr(6);
            } else if (arg == "--validate-only") {
                validate_only = true;
            } else if (diff_mode) {
                diff_paths.push_back(arg);
            } else if (path.empty()) {
                path = arg;
            } else {
                std::cerr << "revec-stats: multiple trace files given\n";
                return 1;
            }
        }
        if (diff_mode) {
            if (diff_paths.size() != 2) {
                std::cerr << "revec-stats: diff needs <baseline.json> <current.json>\n";
                return 1;
            }
            return run_diff(diff_paths[0], diff_paths[1], rules, std::cout);
        }
        if (path.empty()) {
            std::cerr << "revec-stats: no trace file given (try --help)\n";
            return 1;
        }
        return run(path, validate_only, rid_hex, std::cout);
    } catch (const std::exception& e) {
        std::cerr << "revec-stats: " << e.what() << '\n';
        return 2;
    }
}
