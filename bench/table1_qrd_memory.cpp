// Reproduces Table 1: scheduling one QRD iteration with memory allocation
// under varying memory sizes (number of available slots). The paper's
// finding: the schedule length never moves because the critical path
// dominates; memory size only matters at the feasibility cliff (their
// solver timed out at 9 slots and proved infeasibility at 8).
#include "common.hpp"

#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"

using namespace revec;

int main() {
    bench::banner("Table 1 — Scheduling QRD on the EIT architecture",
                  "Table 1: schedule length 173 cc at 64/32/16/10 slots; "
                  "|V|=143, |E|=194, |Cr.P|=169, #v_data=49; timeout at 9, UNSAT at 8");

    const arch::ArchSpec spec = arch::ArchSpec::eit();
    const ir::Graph g = bench::kernel_qrd();
    const ir::GraphStats st = ir::graph_stats(spec, g);

    std::cout << "Our QRD IR (pipeline-merged): |V|=" << st.num_nodes << ", |E|=" << st.num_edges
              << ", |Cr.P|=" << st.critical_path << ", #v_data=" << st.num_vector_data << '\n';
    bench::note("the paper's exact DSL source is unavailable; our MGS-based MMSE-QRD "
                "has the same op mix and a graph in the same regime");

    Table t({"#slots available", "schedule length (cc)", "#slots used", "opt. time (ms)",
             "status"});
    for (const int slots : {64, 32, 16, 10, 9, 8, 7, 6}) {
        sched::ScheduleOptions opts;
        opts.spec = spec;
        opts.num_slots = slots;
        opts.timeout_ms = 20000;
        const sched::Schedule s = sched::schedule_kernel(g, opts);
        std::string status;
        switch (s.status) {
            case cp::SolveStatus::Optimal: status = "optimal"; break;
            case cp::SolveStatus::SatTimeout: status = "feasible (timeout)"; break;
            case cp::SolveStatus::Timeout: status = "timeout, no solution"; break;
            case cp::SolveStatus::Unsat: status = "UNSAT"; break;
            case cp::SolveStatus::HeuristicFallback: status = "heuristic (timeout)"; break;
        }
        if (s.feasible()) {
            const auto problems = sched::verify_schedule(spec, g, s);
            if (!problems.empty()) status += " [VERIFY FAILED: " + problems.front() + "]";
        }
        t.add_row({std::to_string(slots),
                   s.feasible() ? std::to_string(s.makespan) : "-",
                   s.feasible() ? std::to_string(s.slots_used) : "-",
                   format_fixed(s.stats.time_ms, 0), status});
    }
    t.print(std::cout);

    std::cout << "\nPaper Table 1 for comparison:\n";
    Table p({"#slots available", "schedule length (cc)", "#slots used", "opt. time (ms)"});
    p.add_row({"64", "173", "33", "1854"});
    p.add_row({"32", "173", "28", "1844"});
    p.add_row({"16", "173", "16", "1813"});
    p.add_row({"10", "173", "10", "1835"});
    p.add_row({"9", "timeout", "-", "-"});
    p.add_row({"8", "UNSAT", "-", "-"});
    p.print(std::cout);

    bench::note("shape reproduced: schedule length equals the critical path and is "
                "invariant to memory size, with a hard feasibility cliff at small sizes; "
                "our cliff sits lower because our kernel has fewer vector data nodes");

    // The paper-literal lifetime definition (eq. 10, excluding the last
    // read) for reference.
    std::cout << "\nPaper-literal lifetime model (eq. 10, lifetime excludes last read):\n";
    Table lit({"#slots available", "schedule length (cc)", "#slots used", "status"});
    for (const int slots : {16, 10, 8, 7, 6}) {
        sched::ScheduleOptions opts;
        opts.spec = spec;
        opts.num_slots = slots;
        opts.timeout_ms = 20000;
        opts.lifetime_includes_last_read = false;
        const sched::Schedule s = sched::schedule_kernel(g, opts);
        lit.add_row({std::to_string(slots), s.feasible() ? std::to_string(s.makespan) : "-",
                     s.feasible() ? std::to_string(s.slots_used) : "-",
                     s.feasible() ? "feasible" : "UNSAT/timeout"});
    }
    lit.print(std::cout);
    return 0;
}
