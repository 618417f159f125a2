// Extension — parallel portfolio scaling: wall-clock speedup of the
// shared-bound portfolio solver over the sequential branch-and-bound at
// 1/2/4/8 threads on the paper's kernels (Table 2/3 regime). Self-checks
// that every thread count proves the same optimal makespan the sequential
// solver finds; exits non-zero on any parity or optimality failure. Pass
// --smoke for the CI-sized variant (MATMUL only, 1/2 threads).
#include "common.hpp"

#include <cstring>
#include <vector>

#include "revec/sched/model.hpp"
#include "revec/support/stopwatch.hpp"

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

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
    const std::string metrics_path = bench::metrics_path_from_args(argc, argv);
    obs::MetricsRegistry metrics;

    bench::banner("Extension — portfolio solver scaling (1/2/4/8 threads)",
                  "§3.5 search, parallelised as a diversified portfolio with a "
                  "shared best bound");

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
    bench::note("the shared incumbent is what scales: a diversified worker finds a "
                "near-optimal makespan early, and every other worker's tree collapses "
                "under the tightened bound. The sequential search's first-fail op "
                "phase already proves these kernels in ~170 nodes, so the parallel "
                "cost here is model emission, not nodes: each extra worker and the "
                "canonical replay re-emit the model (~3 ms per QRD emission), which "
                "is why QRD at 2 threads takes 2-3x the 1-thread time at about the "
                "same node count. With a smallest-min op phase MATMUL's cold proof "
                "took 25208 nodes and the portfolio was 28-38x faster.");
    std::cout << (all_ok ? "\nall thread counts prove the sequential optimum\n"
                         : "\nPARITY FAILURES PRESENT\n");
    bench::write_metrics(metrics_path, metrics);
    return all_ok ? 0 : 1;
}
