// google-benchmark microbenchmarks for the CP kernel primitives: domain
// operations, propagation throughput of the global constraints, and
// end-to-end kernel scheduling. These are engineering benchmarks (no paper
// counterpart); they guard the solver's performance envelope.
//
// Before the google-benchmark suite runs, an engine probe solves a
// hole-heavy workload, checks its deterministic search and propagation
// counters against golden values, and times DETECT's warm sequential
// optimality proof; `--json <path>` writes those numbers (the checked-in
// BENCH_cp_engine.json baseline). Remaining flags pass through to
// google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>

#include "common.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/diff2.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/search.hpp"
#include "revec/ir/passes.hpp"
#include "revec/obs/trace.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/stopwatch.hpp"

namespace {

using namespace revec;

void BM_DomainRemoveRange(benchmark::State& state) {
    for (auto _ : state) {
        cp::Domain d(0, 1000);
        for (int i = 0; i < 100; ++i) d.remove_range(i * 7, i * 7 + 3);
        benchmark::DoNotOptimize(d.size());
    }
}
BENCHMARK(BM_DomainRemoveRange);

void BM_StorePushPop(benchmark::State& state) {
    cp::Store s;
    std::vector<cp::IntVar> xs;
    for (int i = 0; i < 64; ++i) xs.push_back(s.new_var(0, 1000));
    for (auto _ : state) {
        s.push_level();
        for (const cp::IntVar x : xs) s.set_min(x, 10);
        s.pop_level();
    }
}
BENCHMARK(BM_StorePushPop);

void BM_CumulativePropagation(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        cp::Store s;
        std::vector<cp::CumulTask> tasks;
        for (int i = 0; i < n; ++i) tasks.push_back({s.new_var(0, 2 * n), 3, 1});
        cp::post_cumulative(s, tasks, 4);
        state.ResumeTiming();
        benchmark::DoNotOptimize(s.propagate());
    }
}
BENCHMARK(BM_CumulativePropagation)->Arg(16)->Arg(64)->Arg(128);

void BM_Diff2Propagation(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        cp::Store s;
        std::vector<cp::Rect> rects;
        for (int i = 0; i < n; ++i) {
            rects.push_back({s.new_var(0, 100), s.new_var(0, 15), s.new_var(4, 8), 1});
        }
        cp::post_diff2(s, rects);
        state.ResumeTiming();
        benchmark::DoNotOptimize(s.propagate());
    }
}
BENCHMARK(BM_Diff2Propagation)->Arg(16)->Arg(48);

void BM_ScheduleMatmul(benchmark::State& state) {
    const ir::Graph g = apps::build_matmul();
    for (auto _ : state) {
        const sched::Schedule s = sched::schedule_kernel(g);
        benchmark::DoNotOptimize(s.makespan);
    }
}
BENCHMARK(BM_ScheduleMatmul)->Unit(benchmark::kMillisecond);

void BM_ScheduleQrd(benchmark::State& state) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    for (auto _ : state) {
        sched::ScheduleOptions opts;
        opts.timeout_ms = 60000;
        const sched::Schedule s = sched::schedule_kernel(g, opts);
        benchmark::DoNotOptimize(s.makespan);
    }
}
BENCHMARK(BM_ScheduleQrd)->Unit(benchmark::kMillisecond);

void BM_ModuloMatmul(benchmark::State& state) {
    const ir::Graph g = apps::build_matmul();
    for (auto _ : state) {
        const pipeline::ModuloResult r = pipeline::modulo_schedule(g);
        benchmark::DoNotOptimize(r.actual_ii);
    }
}
BENCHMARK(BM_ModuloMatmul)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Engine probe: a hole-heavy search whose counters are pinned exactly.

/// Hole-heavy CSP: pairwise distinct values plus offset disequalities
/// punch interior holes into domains watched by bounds-consistent
/// linear/cumulative propagators, so event masks filter most wakeups and
/// holed domains take snapshot trail records. Its search is nearly all
/// optimality proof, the case restarts cost most on (DESIGN §5c): each of
/// its 7 restarts re-walks the top of a tree it already refuted.
cp::SolveResult solve_hole_heavy() {
    cp::Store s;
    constexpr int kN = 9;
    std::vector<cp::IntVar> xs;
    for (int i = 0; i < kN; ++i) xs.push_back(s.new_var(0, 2 * kN));
    for (int i = 0; i < kN; ++i) {
        for (int j = i + 1; j < kN; ++j) {
            cp::post_not_equal(s, xs[static_cast<std::size_t>(i)],
                               xs[static_cast<std::size_t>(j)], 0);
        }
    }
    for (int i = 0; i < kN; ++i) {
        for (int j = i + 1; j < kN; ++j) {
            cp::post_not_equal(s, xs[static_cast<std::size_t>(i)],
                               xs[static_cast<std::size_t>(j)], j - i);
        }
    }
    for (int i = 0; i + 1 < kN; ++i) {
        cp::post_linear_leq(s, {{1, xs[static_cast<std::size_t>(i)]},
                                {-1, xs[static_cast<std::size_t>(i + 1)]}},
                            2 * kN);
    }
    std::vector<cp::CumulTask> tasks;
    for (const cp::IntVar x : xs) tasks.push_back({x, 2, 1});
    cp::post_cumulative(s, tasks, 3);

    std::vector<cp::LinTerm> terms;
    for (const cp::IntVar x : xs) terms.push_back({1, x});
    const cp::IntVar obj = s.new_var(0, 2 * kN * kN);
    terms.push_back({-1, obj});
    cp::post_linear_eq(s, terms, 0);

    return cp::solve(s, {cp::Phase{xs, cp::VarSelect::MinDomain, cp::ValSelect::Min, ""}},
                     obj);
}

/// Median-of-3 wall-clock of a warm-started DETECT schedule — the default
/// compile of the paper kernel whose proof was the last search-bound one
/// (23 482 nodes); its heuristic now meets model::makespan_lower_bound, so
/// the schedule is proven optimal without a CP model.
double time_schedule_detect() {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_detect());
    sched::ScheduleOptions opts;
    opts.timeout_ms = 60000;
    return bench::median_of_3_ms([&] {
        const sched::Schedule s = sched::schedule_kernel(g, opts);
        REVEC_EXPECTS(s.proven_optimal());
    });
}

/// One deterministic counter of the hole-heavy solve and its golden value.
struct PinnedCounter {
    const char* key;  ///< JSON key (BENCH_cp_engine.json "hole_heavy")
    std::int64_t got;
    std::int64_t golden;
};

/// Every deterministic counter of the hole-heavy solve: the search tree
/// (nodes, failures, restarts), the engine's propagation work, and the
/// trail records its holed domains take.
std::vector<PinnedCounter> hole_heavy_counters(const cp::SolveResult& r) {
    const cp::PropagationStats& p = r.prop_stats;
    return {{"nodes", r.stats.nodes, 254350},
            {"failures", r.stats.failures, 127160},
            {"restarts", r.stats.restarts, 7},
            {"propagations", p.propagations, 5668320},
            {"wakeups", p.wakeups, 11939885},
            {"wakeups_filtered", p.wakeups_filtered, 19473099},
            {"self_wakeups_suppressed", p.self_wakeups_suppressed, 212355},
            {"trail_saves", p.trail_saves, 1337612},
            {"trail_snapshots", p.trail_snapshots, 722269},
            {"trail_bytes", p.trail_bytes, 26797272}};
}

/// Solve the hole-heavy probe, time kernel scheduling, print both, fill
/// the JSON document, and check every counter against the golden values.
bool run_engine_probe(bench::JsonWriter& json) {
    // The solve is deterministic (counters identical run to run), so only
    // the wall clock needs damping: keep one run's stats and replace its
    // time with the median over three runs (bench::median_of_3_ms).
    cp::SolveResult r;
    const double ms = bench::median_of_3_ms([&] { r = solve_hole_heavy(); });
    r.stats.time_ms = ms;
    const double detect_ms = time_schedule_detect();

    Table t({"workload", "nodes", "wakeups", "propagations", "trail bytes", "time (ms)"});
    t.add_row({"hole-heavy CSP", std::to_string(r.stats.nodes),
               std::to_string(r.prop_stats.wakeups),
               std::to_string(r.prop_stats.propagations),
               std::to_string(r.prop_stats.trail_bytes), format_fixed(r.stats.time_ms, 1)});
    t.add_row({"detect schedule", "-", "-", "-", "-", format_fixed(detect_ms, 1)});
    t.print(std::cout);

    bool ok = true;
    json.begin_object("hole_heavy");
    for (const PinnedCounter& c : hole_heavy_counters(r)) {
        json.field(c.key, c.got);
        if (c.got != c.golden) {
            std::cout << "ERROR: hole_heavy." << c.key << " = " << c.got << ", golden "
                      << c.golden << "\n";
            ok = false;
        }
    }
    json.field("time_ms", r.stats.time_ms).end_object();
    json.field("detect_schedule_ms", detect_ms);
    return ok;
}

// ---------------------------------------------------------------------------
// Tracing-overhead guard: every obs event site in the solver's hot loops is
// one branch on a nullptr buffer when tracing is off. Guard that contract
// on DETECT's cold sequential optimality proof (the warm one closes at the
// root and never reaches the search) by interleaving untraced solves with
// fully instrumented ones (node-level trace + per-class profiling): the
// best untraced run must not exceed the median instrumented run by more
// than 2%, or the "disabled tracing is free" claim has regressed.

bool run_trace_overhead_guard(bench::JsonWriter& json, obs::MetricsRegistry& metrics) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_detect());
    constexpr int kReps = 5;
    std::array<double, kReps> disabled{};
    std::array<double, kReps> traced{};
    // Interleave the two configurations so machine noise (frequency
    // scaling, cache state) hits both distributions alike.
    for (int rep = 0; rep < kReps; ++rep) {
        {
            sched::ScheduleOptions opts;
            opts.timeout_ms = 60000;
            opts.warm_start = false;
            const Stopwatch watch;
            const sched::Schedule s = sched::schedule_kernel(g, opts);
            REVEC_EXPECTS(s.proven_optimal());
            disabled[static_cast<std::size_t>(rep)] = watch.elapsed_ms();
        }
        {
            obs::TraceSink sink(obs::TraceLevel::Node);
            sched::ScheduleOptions opts;
            opts.timeout_ms = 60000;
            opts.warm_start = false;
            opts.solver.trace = &sink;
            opts.solver.profile = true;
            const Stopwatch watch;
            const sched::Schedule s = sched::schedule_kernel(g, opts);
            REVEC_EXPECTS(s.proven_optimal());
            traced[static_cast<std::size_t>(rep)] = watch.elapsed_ms();
            if (rep == kReps - 1) {
                // Archive the instrumented run's counters (--metrics).
                s.export_metrics(metrics);
                metrics.set("solve.makespan", s.makespan);
                metrics.set("trace.events", static_cast<std::int64_t>(
                                                sink.main()->size()));
            }
        }
    }
    std::sort(disabled.begin(), disabled.end());
    std::sort(traced.begin(), traced.end());
    const double min_disabled = disabled[0];
    const double median_traced = traced[kReps / 2];

    Table t({"config", "min (ms)", "median (ms)", "max (ms)"});
    t.add_row({"tracing off", format_fixed(disabled[0], 2),
               format_fixed(disabled[kReps / 2], 2),
               format_fixed(disabled[kReps - 1], 2)});
    t.add_row({"node trace + profile", format_fixed(traced[0], 2),
               format_fixed(traced[kReps / 2], 2), format_fixed(traced[kReps - 1], 2)});
    t.print(std::cout);

    json.begin_object("trace_overhead")
        .field("min_disabled_ms", min_disabled)
        .field("median_traced_ms", median_traced)
        .end_object();
    metrics.gauge("overhead.min_disabled_ms", min_disabled);
    metrics.gauge("overhead.median_traced_ms", median_traced);

    if (min_disabled > 1.02 * median_traced) {
        std::cout << "ERROR: untraced solve exceeds the instrumented median by >2% — "
                     "the disabled-tracing path is no longer one branch per event\n";
        return false;
    }
    bench::note("disabled tracing within the 2% overhead bound (best untraced " +
                format_fixed(min_disabled, 2) + " ms vs instrumented median " +
                format_fixed(median_traced, 2) + " ms)");
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = bench::json_path_from_args(argc, argv);
    const std::string metrics_path = bench::metrics_path_from_args(argc, argv);

    bench::JsonWriter json;
    obs::MetricsRegistry metrics;
    json.begin_object();
    json.field("bench", "micro_cp_kernel");
    bool ok = run_engine_probe(json);
    ok = run_trace_overhead_guard(json, metrics) && ok;
    json.end_object();
    bench::write_json(json_path, json);
    bench::write_metrics(metrics_path, metrics);
    if (!ok) return 1;

    // Strip --json/--metrics <path> before handing the argument vector to
    // google-benchmark, then run the registered microbenchmarks.
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" || std::string(argv[i]) == "--metrics") {
            ++i;  // skip the path operand too
            continue;
        }
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
