// The command-line driver logic behind tools/revecc: the paper's Fig. 2
// flow as a library. Takes an IR file (the XML a DSL run emits), runs
// scheduling + memory allocation, optionally pipelines, and renders the
// outputs (schedule report, machine listing, DOT). Kept as a library so
// the driver is unit-testable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/obs/metrics.hpp"
#include "revec/obs/trace.hpp"

namespace revec::sched {
struct Schedule;
}  // namespace revec::sched

namespace revec::pipeline {
struct ModuloResult;
}  // namespace revec::pipeline

namespace revec::driver {

/// Parsed command line.
struct Options {
    std::string input_path;           ///< IR XML ("-" reads stdin is not supported)
    std::string emit = "schedule";    ///< schedule | listing | dot | stats | modulo
    int num_slots = -1;               ///< -1 = full memory
    std::int64_t timeout_ms = 30000;
    bool merge_pass = true;           ///< run merge_pipeline_ops first
    bool memory = true;               ///< allocate memory slots
    bool include_reconfigs = false;   ///< for --emit=modulo
    bool simulate = false;            ///< run the simulator after codegen
    int threads = 1;                  ///< portfolio workers (1 = sequential solver)
    std::uint32_t seed = 0x5eedu;     ///< jitter seed of workers 1..N-1
    bool warm_start = true;           ///< heuristic incumbent + anytime fallback
    bool heuristic_only = false;      ///< skip the exact solver entirely
    int lanes = -1;                   ///< override vector lanes (-1 = EIT)
    std::string arch_path;            ///< architecture description XML ("" = EIT)
    std::string save_schedule_path;   ///< write the schedule artifact here ("" = no)
    std::string dump_model_path;      ///< write the lowered KernelModel JSON here ("" = no)

    /// Observability outputs (DESIGN §5g). --trace=F writes the solve
    /// timeline (Chrome trace JSON, or JSONL with a .jsonl extension);
    /// --metrics=F writes the metrics registry JSON and turns on
    /// per-propagator-class profiling. trace_level defaults to Phase as
    /// soon as --trace is given; --trace-level=node adds per-node events.
    std::string trace_path;
    std::string metrics_path;
    obs::TraceLevel trace_level = obs::TraceLevel::Off;
};

/// Parse argv-style arguments (excluding argv[0]). Throws revec::Error on
/// malformed input; returns nullopt when help was requested (usage already
/// printed to `out`).
std::optional<Options> parse_args(const std::vector<std::string>& args, std::ostream& out);

/// Run the flow and write the requested artifact to `out`.
///
/// Exit codes distinguish how the solve ended:
///   0  proven optimal (or a non-solver emit mode succeeded)
///   1  no solution exists (UNSAT), or a non-solver usage error
///   2  internal error: the schedule failed independent verification
///   3  simulation mismatch or memory-rule violation
///   4  feasible solution found, optimality unproven (solver timeout)
///   5  heuristic fallback schedule returned (exact solver found nothing)
///   6  timeout with no solution at all
int run(const Options& options, std::ostream& out);

/// Usage text, including the exit-code table.
std::string usage();

/// Every flag parse_args understands, in usage order. The single
/// inventory behind usage(), the did-you-mean suggester, and the
/// help-completeness test — add a flag in one place and the test fails
/// until usage() documents it.
const std::vector<std::string>& known_flags();

/// The metrics registry for one schedule solve: SearchStats under "solve.",
/// engine counters under "engine.", per-propagator-class profiles under
/// "prop.<Class>.", per-worker counters under "worker.<k>.", plus result
/// labels/gauges. This is what `--metrics=F` serializes; exposed for the
/// driver tests (counter totals must equal the solver's own counters).
obs::MetricsRegistry collect_metrics(const sched::Schedule& s);

/// Likewise for a modulo scan (totals accumulated over every per-II solve).
obs::MetricsRegistry collect_metrics(const pipeline::ModuloResult& r);

}  // namespace revec::driver
