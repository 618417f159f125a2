// Reproduces Table 3: modulo scheduling (software pipelining) of QRD, ARF
// and MATMUL, with reconfigurations either post-processed (left half) or
// optimized inside the model (right half).
// Paper: QRD 32+23=55 vs 46; ARF 16+16=32 vs 24; MATMUL 4 vs 4.
//
// Self-checking: exits non-zero unless every reconfiguration-aware row is
// proven optimal at its known actual II (QRD 22, ARF 9, MATMUL 4 cc).
#include "common.hpp"

#include "revec/pipeline/modulo.hpp"

using namespace revec;

int main() {
    bench::banner("Table 3 — Pipelining with focus on limiting reconfigurations",
                  "Table 3: excl. vs incl. reconfigurations for QRD / ARF / MATMUL");

    const arch::ArchSpec spec = arch::ArchSpec::eit();

    struct Row {
        const char* name;
        ir::Graph graph;
        int optimal_actual_ii;  ///< reconfigurations included
    };
    Row rows[] = {{"QRD", bench::kernel_qrd(), 22},
                  {"ARF", bench::kernel_arf(), 9},
                  {"MATMUL", bench::kernel_matmul(), 4}};
    bool ok = true;

    Table t({"Application", "(|V|, |E|, |Cr.P|)", "initial II (cc)", "# rec.",
             "actual II (cc)", "throughput", "II (cc)", "throughput ",
             "optimization time (ms)"});
    for (const Row& row : rows) {
        pipeline::ModuloOptions excl;
        excl.spec = spec;
        excl.timeout_ms = 60000;
        const pipeline::ModuloResult r_excl = pipeline::modulo_schedule(row.graph, excl);

        pipeline::ModuloOptions incl;
        incl.spec = spec;
        incl.include_reconfigs = true;
        incl.timeout_ms = 60000;
        const pipeline::ModuloResult r_incl = pipeline::modulo_schedule(row.graph, incl);
        if (r_incl.status != cp::SolveStatus::Optimal ||
            r_incl.actual_ii != row.optimal_actual_ii) {
            std::cout << "ERROR: " << row.name << " incl. reconfigs: actual II "
                      << r_incl.actual_ii
                      << (r_incl.status == cp::SolveStatus::Optimal ? "" : " (not proven)")
                      << ", want " << row.optimal_actual_ii << " proven optimal\n";
            ok = false;
        }

        t.add_row({row.name, bench::graph_triple(spec, row.graph),
                   std::to_string(r_excl.initial_ii), std::to_string(r_excl.reconfigs),
                   std::to_string(r_excl.actual_ii), format_fixed(r_excl.throughput, 3),
                   std::to_string(r_incl.actual_ii), format_fixed(r_incl.throughput, 3),
                   format_fixed(r_incl.time_ms, 0)});
    }
    t.print(std::cout);

    std::cout << "\nPaper Table 3 for comparison "
                 "(left: excluding reconfigs; right: including):\n";
    Table p({"Application", "(|V|, |E|, |Cr.P|)", "initial II (cc)", "# rec.",
             "actual II (cc)", "throughput", "II (cc)", "throughput ",
             "optimization time (ms)"});
    p.add_row({"QRD", "(143, 194, 169)", "32", "23", "55", "0.018", "46", "0.022", "3055"});
    p.add_row({"ARF", "(88, 128, 56)", "16", "16", "32", "0.031", "24", "0.042", "80061"});
    p.add_row({"MATMUL", "(44, 68, 8)", "4", "1", "4", "0.250", "4", "0.250", "2135"});
    p.print(std::cout);

    bench::note("shape reproduced: the reconfiguration-aware model always matches or "
                "beats the post-processed actual II (QRD and ARF improve, MATMUL with "
                "its single configuration needs none). Our configuration-grouped "
                "branching plus the blocks>=configs bound lets the solver *prove* the "
                "optimum quickly, where the paper's (omitted) model ran for minutes.");
    return ok ? 0 : 1;
}
