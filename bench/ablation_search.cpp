// Ablation: the paper's three-phase search heuristic (§3.5, operation
// starts -> data starts -> slots) vs a single first-fail phase over all
// decision variables, and a diversified 4-worker portfolio.
#include "common.hpp"

#include "revec/sched/model.hpp"

using namespace revec;

int main(int argc, char** argv) {
    const std::string json_path = bench::json_path_from_args(argc, argv);
    bench::banner("Ablation — three-phase search vs single-phase first-fail",
                  "§3.5: 'start with the most influential decisions and end with the "
                  "most trivial ones'");

    const arch::ArchSpec spec = arch::ArchSpec::eit();
    struct K {
        const char* name;
        ir::Graph g;
    } kernels[] = {{"MATMUL", bench::kernel_matmul()},
                   {"QRD", bench::kernel_qrd()},
                   {"ARF", bench::kernel_arf()}};

    struct Strategy {
        const char* label;
        bool three_phase;
        int threads;
    } strategies[] = {{"3-phase (paper)", true, 1},
                      {"single first-fail", false, 1},
                      {"portfolio x4", true, 4}};

    bench::JsonWriter json;
    json.begin_object();
    json.field("bench", "ablation_search");
    json.begin_array("rows");

    Table t({"kernel", "strategy", "makespan (cc)", "nodes", "failures", "time (ms)",
             "status"});
    for (const K& k : kernels) {
        for (const Strategy& strat : strategies) {
            sched::ScheduleOptions opts;
            opts.spec = spec;
            opts.three_phase_search = strat.three_phase;
            opts.timeout_ms = 15000;
            opts.solver.threads = strat.threads;
            sched::Schedule s;
            const double med_ms =
                bench::median_of_3_ms([&] { s = sched::schedule_kernel(k.g, opts); });
            const std::string status = s.proven_optimal()
                                           ? "optimal"
                                           : (s.feasible() ? "feasible" : "none");
            t.add_row({k.name, strat.label,
                       s.feasible() ? std::to_string(s.makespan) : "-",
                       std::to_string(s.stats.nodes), std::to_string(s.stats.failures),
                       format_fixed(med_ms, 0), status});
            json.begin_object()
                .field("kernel", k.name)
                .field("strategy", strat.label)
                .field("makespan", s.feasible() ? s.makespan : -1)
                .field("nodes", s.stats.nodes)
                .field("failures", s.stats.failures)
                .field("time_ms", med_ms)
                .field("status", status)
                .end_object();
        }
    }
    t.print(std::cout);
    json.end_array().end_object();
    bench::write_json(json_path, json);
    bench::note("empirical outcome in THIS solver: both strategies find the same "
                "optima, and plain first-fail often needs fewer nodes (e.g. MATMUL), "
                "because our redundant live-data Cumulative already propagates the "
                "memory feasibility the paper's phase split was protecting against. "
                "With that constraint removed the 3-phase order is what keeps the "
                "slot phase backtrack-free, as §3.5 argues. The portfolio row runs "
                "4 diversified workers over the 3-phase model with a shared best "
                "bound; its node count sums every worker's tree.");
    return 0;
}
