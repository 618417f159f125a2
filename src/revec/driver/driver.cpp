#include "revec/driver/driver.hpp"

#include <memory>
#include <ostream>

#include "revec/arch/spec_io.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/cp/store.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/dot.hpp"
#include "revec/ir/passes.hpp"
#include "revec/ir/xml_io.hpp"
#include "revec/model/json.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/schedule_io.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/strings.hpp"
#include "revec/support/table.hpp"

namespace revec::driver {

std::string usage() {
    return R"(usage: revecc <ir.xml> [options]

Schedules an IR file (the XML a DSL program run emits) for the EIT
reconfigurable vector architecture.

options:
  --emit=WHAT        schedule (default) | listing | dot | stats | modulo
  --slots=N          memory slots available (default: full memory)
  --timeout-ms=N     solver budget per solve (default 30000)
  --no-merge         skip the pipeline-merging pass
  --no-memory        schedule without memory allocation
  --include-reconfigs  reconfiguration-aware modulo model (with --emit=modulo)
  --simulate         execute the generated code and check the outputs
  --threads=N        parallel portfolio workers sharing one incumbent bound
                     (1-64; default 1 = the sequential solver)
  --seed=N           jitter seed of workers 1..N-1 (default 0x5eed)
  --warm-start=MODE  on (default) seeds the exact search with a verified
                     heuristic schedule and falls back to it on timeout;
                     off runs the cold exact solver only
  --heuristic-only   skip the exact solver; emit the heuristic schedule
  --lanes=N          override the number of vector lanes
  --arch=FILE        architecture description XML (see arch/spec_io.hpp)
  --save-schedule=F  write the schedule artifact XML to F
  --dump-model=F     write the lowered scheduling model (KernelModel) as JSON
                     to F — the solver-agnostic problem description shared by
                     the CP emitter, the heuristics, and the verifier
  --trace=F          write the solve timeline to F: Chrome trace-event JSON
                     (load into Perfetto / chrome://tracing for per-worker
                     timelines), or a deterministic JSONL stream when F ends
                     in .jsonl
  --trace-level=L    off | phase (default with --trace) | node; node adds
                     per-search-node and failure events
  --metrics=F        write end-of-run metrics JSON to F (search counters,
                     engine counters, per-propagator-class profile)
  --help             this text

exit codes:
  0  proven optimal (or a non-solver emit mode succeeded)
  1  no solution exists (UNSAT), or a non-solver usage error
  2  internal error: the schedule failed independent verification
  3  simulation mismatch or memory-rule violation
  4  feasible solution found, optimality unproven (solver timeout)
  5  heuristic fallback schedule returned (exact solver found nothing)
  6  timeout with no solution at all
)";
}

const std::vector<std::string>& known_flags() {
    // The single flag inventory: parse_args dispatches on these, usage()
    // must document every one (test_driver pins that), and the
    // did-you-mean suggester searches them.
    static const std::vector<std::string> kFlags = {
        "--emit",         "--slots",     "--timeout-ms",   "--no-merge",
        "--no-memory",    "--include-reconfigs",           "--simulate",
        "--threads",      "--seed",      "--warm-start",
        "--heuristic-only",              "--lanes",        "--arch",
        "--save-schedule",               "--dump-model",   "--trace",
        "--trace-level",  "--metrics",   "--help",
    };
    return kFlags;
}

std::optional<Options> parse_args(const std::vector<std::string>& args, std::ostream& out) {
    Options opts;
    bool trace_level_given = false;
    for (const std::string& arg : args) {
        if (arg == "--help" || arg == "-h") {
            out << usage();
            return std::nullopt;
        }
        if (arg == "--no-merge") {
            opts.merge_pass = false;
        } else if (arg == "--no-memory") {
            opts.memory = false;
        } else if (arg == "--include-reconfigs") {
            opts.include_reconfigs = true;
        } else if (arg == "--simulate") {
            opts.simulate = true;
        } else if (starts_with(arg, "--emit=")) {
            opts.emit = arg.substr(7);
            if (opts.emit != "schedule" && opts.emit != "listing" && opts.emit != "dot" &&
                opts.emit != "stats" && opts.emit != "modulo") {
                throw Error("unknown --emit value '" + opts.emit + "'");
            }
        } else if (starts_with(arg, "--warm-start=")) {
            const std::string mode = arg.substr(13);
            if (mode == "on") {
                opts.warm_start = true;
            } else if (mode == "off") {
                opts.warm_start = false;
            } else {
                throw Error("--warm-start must be 'on' or 'off'");
            }
        } else if (arg == "--heuristic-only") {
            opts.heuristic_only = true;
        } else if (starts_with(arg, "--threads=")) {
            const std::int64_t threads = parse_int(arg.substr(10));
            if (threads < 1 || threads > cp::kMaxWorkers) {
                throw Error("--threads must be in [1, " + std::to_string(cp::kMaxWorkers) + "]");
            }
            opts.threads = static_cast<int>(threads);
        } else if (starts_with(arg, "--seed=")) {
            opts.seed = static_cast<std::uint32_t>(parse_int(arg.substr(7)));
        } else if (starts_with(arg, "--slots=")) {
            opts.num_slots = static_cast<int>(parse_int(arg.substr(8)));
        } else if (starts_with(arg, "--timeout-ms=")) {
            opts.timeout_ms = parse_int(arg.substr(13));
        } else if (starts_with(arg, "--lanes=")) {
            opts.lanes = static_cast<int>(parse_int(arg.substr(8)));
        } else if (starts_with(arg, "--arch=")) {
            opts.arch_path = arg.substr(7);
        } else if (starts_with(arg, "--save-schedule=")) {
            opts.save_schedule_path = arg.substr(16);
        } else if (starts_with(arg, "--dump-model=")) {
            opts.dump_model_path = arg.substr(13);
        } else if (starts_with(arg, "--trace=")) {
            opts.trace_path = arg.substr(8);
            if (opts.trace_path.empty()) throw Error("--trace needs a file path");
        } else if (starts_with(arg, "--trace-level=")) {
            const std::string level = arg.substr(14);
            const auto parsed = obs::parse_trace_level(level);
            if (!parsed.has_value()) {
                throw Error("unknown --trace-level '" + level +
                            "' (expected off, phase, or node)");
            }
            opts.trace_level = *parsed;
            trace_level_given = true;
        } else if (starts_with(arg, "--metrics=")) {
            opts.metrics_path = arg.substr(10);
            if (opts.metrics_path.empty()) throw Error("--metrics needs a file path");
        } else if (starts_with(arg, "--")) {
            std::string message = "unknown option '" + arg + "'";
            // --portfolio was a host-dependent spelling of --threads.
            const std::string suggestion =
                arg == "--portfolio" ? "--threads" : closest_flag(arg, known_flags());
            if (!suggestion.empty()) message += " — did you mean '" + suggestion + "'?";
            throw Error(message + " (try --help)");
        } else if (opts.input_path.empty()) {
            opts.input_path = arg;
        } else {
            throw Error("multiple input files given: '" + opts.input_path + "' and '" + arg +
                        "'");
        }
    }
    if (opts.input_path.empty()) throw Error("no input file (try --help)");
    // Asking for a trace file implies phase-level tracing; an explicit
    // --trace-level (any value, including off) wins.
    if (!opts.trace_path.empty() && !trace_level_given) {
        opts.trace_level = obs::TraceLevel::Phase;
    }
    return opts;
}

namespace {

/// Human-readable solve status for the reports.
const char* status_word(cp::SolveStatus status) {
    switch (status) {
        case cp::SolveStatus::Optimal: return "proven optimal";
        case cp::SolveStatus::Unsat: return "no solution exists (UNSAT)";
        case cp::SolveStatus::SatTimeout: return "best found, optimality unproven (timeout)";
        case cp::SolveStatus::Timeout: return "timeout without a solution";
        case cp::SolveStatus::HeuristicFallback: return "heuristic fallback";
    }
    return "unknown";
}

/// Exit code for a feasible solve (see driver.hpp): Optimal -> 0,
/// SatTimeout -> 4, HeuristicFallback -> 5.
int feasible_exit_code(cp::SolveStatus status) {
    switch (status) {
        case cp::SolveStatus::SatTimeout: return 4;
        case cp::SolveStatus::HeuristicFallback: return 5;
        default: return 0;
    }
}

arch::ArchSpec spec_for(const Options& options) {
    arch::ArchSpec spec = options.arch_path.empty() ? arch::ArchSpec::eit()
                                                    : arch::load_spec(options.arch_path);
    if (options.lanes > 0) spec.vector_lanes = options.lanes;
    spec.validate();
    return spec;
}

int emit_stats(const arch::ArchSpec& spec, const ir::Graph& g, std::ostream& out) {
    const ir::GraphStats st = ir::graph_stats(spec, g);
    Table t({"property", "value"});
    t.add_row({"name", g.name()});
    t.add_row({"|V|", std::to_string(st.num_nodes)});
    t.add_row({"|E|", std::to_string(st.num_edges)});
    t.add_row({"|Cr.P| (cc)", std::to_string(st.critical_path)});
    t.add_row({"vector ops", std::to_string(st.num_vector_ops)});
    t.add_row({"matrix ops", std::to_string(st.num_matrix_ops)});
    t.add_row({"scalar ops", std::to_string(st.num_scalar_ops)});
    t.add_row({"index/merge ops", std::to_string(st.num_index_merge)});
    t.add_row({"vector data", std::to_string(st.num_vector_data)});
    t.add_row({"scalar data", std::to_string(st.num_scalar_data)});
    t.print(out);
    return 0;
}

/// Serialize the requested observability artifacts. Called on every exit
/// path that has a solver result — including infeasible solves, which are
/// exactly the runs worth profiling.
void write_observability(const Options& options, const obs::TraceSink* sink,
                         const obs::MetricsRegistry& metrics, std::ostream& out) {
    if (sink != nullptr && !options.trace_path.empty()) {
        sink->save(options.trace_path);
        out << "trace written to " << options.trace_path << "\n";
    }
    if (!options.metrics_path.empty()) {
        metrics.save_json(options.metrics_path);
        out << "metrics written to " << options.metrics_path << "\n";
    }
}

int emit_modulo(const Options& options, const arch::ArchSpec& spec, const ir::Graph& g,
                obs::TraceSink* sink, std::ostream& out) {
    pipeline::ModuloOptions mopts;
    mopts.spec = spec;
    mopts.include_reconfigs = options.include_reconfigs;
    mopts.timeout_ms = options.timeout_ms;
    mopts.solver.threads = options.threads;
    mopts.solver.seed = options.seed;
    mopts.solver.trace = sink;
    mopts.solver.profile = !options.metrics_path.empty();
    mopts.warm_start = options.warm_start;
    mopts.heuristic_only = options.heuristic_only;
    const pipeline::ModuloResult r = pipeline::modulo_schedule(g, mopts);
    write_observability(options, sink, collect_metrics(r), out);
    if (!r.feasible()) {
        out << "modulo scheduling failed (" << status_word(r.status) << ")\n";
        return r.status == cp::SolveStatus::Unsat ? 1 : 6;
    }
    out << "II lower bound: " << r.ii_lower_bound << "\n";
    out << "initial II:     " << r.initial_ii << "\n";
    out << "reconfigs:      " << r.reconfigs << "\n";
    out << "actual II:      " << r.actual_ii << "\n";
    out << "throughput:     " << format_fixed(r.throughput, 4) << " iterations/cc\n";
    out << "solve time:     " << format_fixed(r.time_ms, 0) << " ms\n";
    out << "status:         " << status_word(r.status) << "\n";
    return feasible_exit_code(r.status);
}

}  // namespace

obs::MetricsRegistry collect_metrics(const sched::Schedule& s) {
    obs::MetricsRegistry m;
    s.export_metrics(m);
    m.set("solve.makespan", s.makespan);
    m.set("solve.slots_used", s.slots_used);
    m.set("solve.lower_bound", s.lower_bound);
    m.set("solve.bound_closed", s.bound_closed ? 1 : 0);
    m.label("solve.status", status_word(s.status));
    for (const cp::WorkerReport& w : s.workers) {
        const std::string prefix = "worker." + std::to_string(w.config_index) + ".";
        cp::export_counters(w.stats, m, prefix);
        m.set(prefix + "proved", w.proved ? 1 : 0);
        m.set(prefix + "best_objective", w.best_objective);
        m.set(prefix + "jitter_seed", w.jitter_seed);
    }
    return m;
}

obs::MetricsRegistry collect_metrics(const pipeline::ModuloResult& r) {
    obs::MetricsRegistry m;
    r.export_metrics(m);
    m.set("modulo.ii_lower_bound", r.ii_lower_bound);
    m.set("modulo.initial_ii", r.initial_ii);
    m.set("modulo.reconfigs", r.reconfigs);
    m.set("modulo.actual_ii", r.actual_ii);
    m.gauge("modulo.throughput", r.throughput);
    m.gauge("modulo.time_ms", r.time_ms);
    m.label("solve.status", status_word(r.status));
    return m;
}

int run(const Options& options, std::ostream& out) {
    const arch::ArchSpec spec = spec_for(options);
    ir::Graph g = ir::load_xml(options.input_path);
    if (options.merge_pass) g = ir::merge_pipeline_ops(g);

    // One set of options for the dumped model, the solve and the check.
    sched::ScheduleOptions sopts;
    sopts.spec = spec;
    sopts.num_slots = options.num_slots;
    sopts.memory_allocation = options.memory;
    sopts.timeout_ms = options.timeout_ms;
    sopts.warm_start = options.warm_start;
    sopts.heuristic_only = options.heuristic_only;
    sopts.solver.threads = options.threads;
    sopts.solver.seed = options.seed;
    sopts.solver.profile = !options.metrics_path.empty();

    if (!options.dump_model_path.empty()) {
        // Exactly the model the scheduling path solves — resolved
        // num_slots AND the derived horizon — so a dump replayed through
        // schedule_model (revecd does this) reproduces this run's
        // schedule bit for bit.
        model::save_json(sched::lower_for_schedule(g, sopts), options.dump_model_path);
        out << "model written to " << options.dump_model_path << "\n";
    }

    if (options.emit == "stats") return emit_stats(spec, g, out);
    if (options.emit == "dot") {
        out << ir::to_dot(g);
        return 0;
    }

    // One trace sink for the whole solve; workers register their own tracks.
    std::unique_ptr<obs::TraceSink> sink;
    if (!options.trace_path.empty() && options.trace_level != obs::TraceLevel::Off) {
        sink = std::make_unique<obs::TraceSink>(options.trace_level);
    }

    if (options.emit == "modulo") return emit_modulo(options, spec, g, sink.get(), out);

    sopts.solver.trace = sink.get();
    const sched::Schedule s = sched::schedule_kernel(g, sopts);
    write_observability(options, sink.get(), collect_metrics(s), out);
    if (!s.feasible()) {
        out << "scheduling failed: " << status_word(s.status) << "\n";
        return s.status == cp::SolveStatus::Unsat ? 1 : 6;
    }
    const auto problems = sched::verify_schedule(spec, g, s, sopts);
    if (!problems.empty()) {
        out << "internal error: schedule failed verification: " << problems.front() << "\n";
        return 2;
    }

    if (!options.save_schedule_path.empty()) {
        save_schedule(g, s, options.save_schedule_path);
        out << "schedule written to " << options.save_schedule_path << "\n";
    }

    if (options.emit == "schedule") {
        out << "makespan:    " << s.makespan << " cc (" << status_word(s.status) << ")\n";
        out << "slots used:  " << s.slots_used << "\n";
        if (s.lower_bound > 0) {
            out << "lower bound: " << s.lower_bound << " cc"
                << (s.bound_closed ? " (met by the heuristic: no search)" : "") << "\n";
        }
        out << "solve:       " << s.stats.nodes << " nodes, " << s.stats.failures
            << " failures, " << format_fixed(s.stats.time_ms, 0) << " ms\n";
        for (const cp::WorkerReport& w : s.workers) {
            out << "  worker " << w.config_index << " [jitter " << w.jitter_seed
                << "]: " << w.stats.nodes
                << " nodes, " << w.stats.failures << " failures, " << w.stats.cutoff_prunes
                << " bound prunes, " << w.stats.restarts << " restarts"
                << (w.proved ? ", proved" : "")
                << (w.best_objective >= 0
                        ? ", best " + std::to_string(w.best_objective)
                        : "")
                << "\n";
        }
    }

    if (options.emit == "listing" || options.simulate) {
        if (!options.memory) {
            out << "machine code requires memory allocation (omit --no-memory)\n";
            return 1;
        }
        const codegen::MachineProgram prog = codegen::generate_code(spec, g, s);
        if (options.emit == "listing") out << prog.to_listing(g);
        if (options.simulate) {
            const sim::SimResult result = sim::simulate(spec, g, prog);
            out << "simulation:  " << result.cycles << " cycles, "
                << result.reconfigurations << " reconfigurations, outputs "
                << (result.outputs_match ? "match" : "MISMATCH") << " (max error "
                << result.max_output_error << ")\n";
            if (!result.violations.empty()) {
                out << "memory-rule violations: " << result.violations.front() << "\n";
                return 3;
            }
            if (!result.outputs_match) return 3;
        }
    }
    return feasible_exit_code(s.status);
}

}  // namespace revec::driver
