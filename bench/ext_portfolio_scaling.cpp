// Extension — parallel portfolio scaling: wall-clock speedup of the
// shared-bound portfolio solver over the 1-thread search at 1/2/4/8 threads
// on the paper's kernels (Table 2/3 regime), then the hard corpus
// (apps::kHardCorpus) at 1/2/4 threads with a 2 s budget. Self-checks that
// every thread count proves the same optimal makespan the 1-thread search
// finds on the paper's kernels, and that every corpus schedule passes
// check_schedule and every Optimal corpus answer equals the recorded
// optimum; exits non-zero otherwise. Pass --smoke for the CI-sized variant:
// MATMUL at 1/2 threads, and corpus seed 86 at 1 thread, which must prove
// its recorded optimum (a 1-thread proof that restarts).
#include "common.hpp"

#include <cstring>
#include <vector>

#include "revec/apps/random_kernel.hpp"
#include "revec/model/check.hpp"
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

/// One warm corpus solve of `k` at `threads`. Returns false on a
/// schedule that fails check_schedule, or an Optimal answer that is not the
/// recorded optimum.
bool corpus_solve(const apps::HardKernel& k, int threads, int timeout_ms,
                  sched::Schedule& s) {
    sched::ScheduleOptions opts;
    opts.timeout_ms = timeout_ms;
    opts.solver.threads = threads;
    const model::KernelModel km = sched::lower_for_schedule(
        ir::merge_pipeline_ops(apps::build_random_kernel(k.options())), opts);
    s = sched::schedule_model(km, sched::model_solve_options(opts));
    return s.feasible() && model::check_schedule(km, s.start, s.slot, s.makespan).empty() &&
           (!s.proven_optimal() || s.makespan == k.optimum);
}

/// The hard-corpus table at a 2 s budget. Returns false on any wrong
/// answer (corpus_solve).
bool corpus_table(obs::MetricsRegistry& metrics) {
    Table t({"seed", "optimum", "threads", "status", "makespan", "nodes", "restarts",
             "search (ms)"});
    bool ok = true;
    int proofs[3] = {0, 0, 0};
    for (const apps::HardKernel& k : apps::kHardCorpus) {
        int column = 0;
        for (const int threads : {1, 2, 4}) {
            sched::Schedule s;
            const bool right = corpus_solve(k, threads, 2000, s);
            ok = ok && right;
            if (s.proven_optimal()) ++proofs[column];
            ++column;
            const std::string prefix =
                "corpus." + std::to_string(k.seed) + "." + std::to_string(threads) + "t.";
            cp::export_counters(s.stats, metrics, prefix);
            metrics.set(prefix + "makespan", s.makespan);
            t.add_row({std::to_string(k.seed), std::to_string(k.optimum),
                       std::to_string(threads),
                       right ? svc::status_name(s.status) : "WRONG",
                       std::to_string(s.makespan), std::to_string(s.stats.nodes),
                       std::to_string(s.stats.restarts), format_fixed(s.stats.time_ms, 1)});
        }
    }
    t.print(std::cout);
    std::cout << "proven within 2 s: " << proofs[0] << "/8 at 1 thread, " << proofs[1]
              << "/8 at 2, " << proofs[2] << "/8 at 4\n";
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
                "mostly duplicate it: each extra worker searches a clone of the "
                "caller's one emission (~0.1 ms per QRD clone), and the trees of "
                "the jittered workers and thread start-up are what keep 2-8 "
                "threads below the 1-thread time. With a smallest-min op phase "
                "MATMUL's cold proof took 25208 nodes and the portfolio was "
                "28-38x faster.");
    bool corpus_ok = true;
    if (smoke) {
        static_assert(apps::kHardCorpus[7].seed == 86);
        const apps::HardKernel& k = apps::kHardCorpus[7];
        sched::Schedule s;
        corpus_ok = corpus_solve(k, 1, 60000, s) && s.proven_optimal();
        std::cout << "\nHard corpus seed " << k.seed << ", 1 thread: "
                  << svc::status_name(s.status) << " " << s.makespan << " (optimum "
                  << k.optimum << ") in " << s.stats.nodes << " nodes, "
                  << s.stats.restarts << " restarts\n";
    } else {
        std::cout << "\nHard corpus (70-op random kernels, warm, 2 s budget; search time is "
                     "Schedule::stats.time_ms):\n";
        corpus_ok = corpus_table(metrics);
        bench::note("the corpus kernels' trees run past the first restart limit "
                    "(512 failures). Every worker restarts geometrically with a fresh "
                    "jitter seed, and on 6 of the 8 the optimum equals the makespan "
                    "lower bound, so the search mostly has to find a schedule at the "
                    "bound; restarts with jitter are what find it.");
    }
    std::cout << (all_ok ? "\nall thread counts prove the sequential optimum\n"
                         : "\nPARITY FAILURES PRESENT\n");
    if (!corpus_ok) std::cout << "HARD-CORPUS FAILURES PRESENT\n";
    bench::write_metrics(metrics_path, metrics);
    return all_ok && corpus_ok ? 0 : 1;
}
