// Extension — parallel portfolio scaling: wall-clock speedup of the
// shared-bound portfolio solver over the sequential branch-and-bound at
// 1/2/4/8 threads on the paper's kernels (Table 2/3 regime), then the hard
// corpus (apps::kHardCorpus) at 1/2/4 threads with the canonical replay's
// share of each search. Self-checks that every thread count proves the
// same optimal makespan the sequential solver finds on the paper's
// kernels, and that every corpus schedule passes check_schedule and every
// Optimal corpus answer equals the recorded optimum; exits non-zero
// otherwise. Pass --smoke for the CI-sized variant (MATMUL only, 1/2
// threads, no corpus).
#include "common.hpp"

#include <cstring>
#include <sstream>
#include <vector>

#include "revec/apps/random_kernel.hpp"
#include "revec/model/check.hpp"
#include "revec/obs/trace.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/stopwatch.hpp"
#include "revec/svc/protocol.hpp"

using namespace revec;

namespace {

struct Run {
    sched::Schedule schedule;
    double wall_ms = 0.0;
};

Run timed_schedule(const ir::Graph& g, const arch::ArchSpec& spec, int threads) {
    sched::ScheduleOptions opts;
    opts.spec = spec;
    opts.timeout_ms = 60000;
    opts.solver.threads = threads;
    // Cold search: this harness measures how the portfolio splits a
    // non-trivial tree; the heuristic incumbent would collapse it (that
    // effect has its own harness, ext_warm_start).
    opts.warm_start = false;
    // Median-of-3 (bench::median_of_3_ms): speedup ratios amplify noise,
    // so each cell gets the damped statistic. The schedule itself is the
    // last run's — all three prove the same optimum or the parity check
    // below fails anyway.
    Run r;
    r.wall_ms = bench::median_of_3_ms([&] { r.schedule = sched::schedule_kernel(g, opts); });
    return r;
}

/// One warm corpus solve, with the replay read off its `replay` span.
struct CorpusRun {
    sched::Schedule schedule;
    bool checked = false;  ///< the schedule passes check_schedule
    bool replayed = false;
    bool replay_found = false;
    std::int64_t replay_nodes = 0;
    double replay_ms = 0.0;
};

CorpusRun corpus_run(const model::KernelModel& km, const sched::ScheduleOptions& opts,
                     int threads) {
    obs::TraceSink sink(obs::TraceLevel::Phase);
    sched::ModelSolveOptions mo = sched::model_solve_options(opts);
    mo.solver.threads = threads;
    mo.solver.trace = &sink;
    CorpusRun run;
    run.schedule = sched::schedule_model(km, mo);
    const sched::Schedule& s = run.schedule;
    run.checked = s.feasible() && model::check_schedule(km, s.start, s.slot, s.makespan).empty();

    std::ostringstream os;
    sink.write_jsonl(os);
    std::int64_t begin_us = 0;
    for (const obs::ParsedTrack& track : obs::parse_trace(os.str()).tracks) {
        for (const obs::ParsedEvent& e : track.events) {
            if (e.name != "replay") continue;
            if (e.kind == 'B') begin_us = e.ts_us;
            if (e.kind != 'E') continue;
            run.replayed = true;
            run.replay_found = e.args.at("found") == 1;
            run.replay_nodes = e.args.at("nodes");
            run.replay_ms = static_cast<double>(e.ts_us - begin_us) / 1000.0;
        }
    }
    return run;
}

/// The hard-corpus table. Returns false on a schedule that fails
/// check_schedule or an Optimal answer that is not the recorded optimum.
bool corpus_table(obs::MetricsRegistry& metrics) {
    Table t({"seed", "optimum", "threads", "status", "makespan", "nodes", "search (ms)",
             "replay nodes", "replay (ms)", "replay share"});
    bool ok = true;
    double search_ms = 0.0;  // of the solves that ran a replay
    double replay_ms = 0.0;
    for (const apps::HardKernel& k : apps::kHardCorpus) {
        sched::ScheduleOptions opts;
        opts.timeout_ms = 2000;
        const model::KernelModel km = sched::lower_for_schedule(
            ir::merge_pipeline_ops(apps::build_random_kernel(k.options())), opts);
        for (const int threads : {1, 2, 4}) {
            const CorpusRun r = corpus_run(km, opts, threads);
            const sched::Schedule& s = r.schedule;
            const bool right =
                r.checked && (!s.proven_optimal() || s.makespan == k.optimum);
            ok = ok && right;
            if (r.replayed) {
                search_ms += s.stats.time_ms;
                replay_ms += r.replay_ms;
            }
            const std::string prefix =
                "corpus." + std::to_string(k.seed) + "." + std::to_string(threads) + "t.";
            cp::export_counters(s.stats, metrics, prefix);
            metrics.set(prefix + "makespan", s.makespan);
            metrics.set(prefix + "replay_nodes", r.replay_nodes);
            metrics.gauge(prefix + "replay_ms", r.replay_ms);
            const std::string replay =
                r.replayed ? (r.replay_found ? "found" : "budget") : "-";
            t.add_row({std::to_string(k.seed), std::to_string(k.optimum),
                       std::to_string(threads),
                       right ? svc::status_name(s.status) : "WRONG",
                       std::to_string(s.makespan), std::to_string(s.stats.nodes),
                       format_fixed(s.stats.time_ms, 1),
                       r.replayed ? std::to_string(r.replay_nodes) + " (" + replay + ")" : "-",
                       r.replayed ? format_fixed(r.replay_ms, 1) : "-",
                       r.replayed && s.stats.time_ms > 0.0
                           ? format_fixed(100.0 * r.replay_ms / s.stats.time_ms, 0) + " %"
                           : "-"});
        }
    }
    t.print(std::cout);
    std::cout << "replay share of the search time of the solves that ran one: "
              << format_fixed(search_ms > 0.0 ? 100.0 * replay_ms / search_ms : 0.0, 1)
              << " % (" << format_fixed(replay_ms, 1) << " of " << format_fixed(search_ms, 1)
              << " ms)\n";
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
    const std::string metrics_path = bench::metrics_path_from_args(argc, argv);
    obs::MetricsRegistry metrics;

    bench::banner("Extension — portfolio solver scaling (1/2/4/8 threads)",
                  "§3.5 search, parallelised as a portfolio of restarting, "
                  "value-jittered workers with a shared best bound");

    const arch::ArchSpec spec = arch::ArchSpec::eit();
    struct K {
        const char* name;
        ir::Graph g;
    };
    std::vector<K> kernels;
    kernels.push_back({"MATMUL", bench::kernel_matmul()});
    if (!smoke) {
        kernels.push_back({"QRD", bench::kernel_qrd()});
        kernels.push_back({"ARF", bench::kernel_arf()});
    }
    const std::vector<int> thread_counts = smoke ? std::vector<int>{1, 2}
                                                 : std::vector<int>{1, 2, 4, 8};

    Table t({"kernel", "threads", "makespan (cc)", "nodes (all workers)", "time (ms)",
             "speedup", "status"});
    bool all_ok = true;
    double best_speedup_4t = 0.0;
    for (const K& k : kernels) {
        const Run seq = timed_schedule(k.g, spec, 1);
        all_ok = all_ok && seq.schedule.proven_optimal();
        for (const int threads : thread_counts) {
            const Run r = threads == 1 ? seq : timed_schedule(k.g, spec, threads);
            const bool parity = r.schedule.proven_optimal() &&
                                r.schedule.makespan == seq.schedule.makespan;
            all_ok = all_ok && parity;
            const double speedup = r.wall_ms > 0.0 ? seq.wall_ms / r.wall_ms : 0.0;
            if (threads == 4 && speedup > best_speedup_4t) best_speedup_4t = speedup;
            const std::string prefix =
                std::string(k.name) + "." + std::to_string(threads) + "t.";
            cp::export_counters(r.schedule.stats, metrics, prefix);
            metrics.set(prefix + "makespan", r.schedule.makespan);
            metrics.gauge(prefix + "wall_ms", r.wall_ms);
            t.add_row({k.name, std::to_string(threads),
                       r.schedule.feasible() ? std::to_string(r.schedule.makespan) : "-",
                       std::to_string(r.schedule.stats.nodes), format_fixed(r.wall_ms, 1),
                       threads == 1 ? "1.00x" : format_fixed(speedup, 2) + "x",
                       parity ? "optimal, parity" : "MISMATCH"});
        }
    }
    t.print(std::cout);
    std::cout << "best 4-thread speedup: " << format_fixed(best_speedup_4t, 2) << "x\n";
    bench::note("the shared incumbent is what scales: a jittered worker finds a "
                "near-optimal makespan early, and every other worker's tree collapses "
                "under the tightened bound. The sequential search's first-fail op "
                "phase, over a makespan that starts at its lower bound, already proves "
                "these kernels in 56-172 nodes, so extra workers "
                "mostly duplicate it: each extra worker and the canonical replay "
                "search a clone of the caller's one emission (~0.1 ms per QRD "
                "clone), and the trees of the jittered workers, the replay "
                "search and thread start-up are what keep 2-8 threads below the "
                "1-thread time. With a smallest-min op phase MATMUL's cold proof "
                "took 25208 nodes and the portfolio was 28-38x faster.");
    bool corpus_ok = true;
    if (!smoke) {
        std::cout << "\nHard corpus (70-op random kernels, warm, 2 s budget; search time is "
                     "Schedule::stats.time_ms, the replay's from its span):\n";
        corpus_ok = corpus_table(metrics);
        bench::note("on the hard corpus the extra workers are what prove: one thread "
                    "proves at most seeds 3 and 86 within 2 s. The replay re-derives a proven "
                    "optimum's assignment with the baseline search; where its column "
                    "reads 'budget' it stopped at cp::kReplayFailures without one and "
                    "the race winner's assignment stands.");
    }
    std::cout << (all_ok ? "\nall thread counts prove the sequential optimum\n"
                         : "\nPARITY FAILURES PRESENT\n");
    if (!corpus_ok) std::cout << "HARD-CORPUS FAILURES PRESENT\n";
    bench::write_metrics(metrics_path, metrics);
    return all_ok && corpus_ok ? 0 : 1;
}
