// Ablations of the model-level design choices DESIGN.md calls out:
//  1. pipeline-merge pass on/off (§3.3.1's complexity claim);
//  2. matrix ops vs lowered vector ops (§3.2.2, Figs. 4-5 trade-off);
//  3. memory allocation in the model vs scheduling only.
#include "common.hpp"

#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/sched/model.hpp"

using namespace revec;

int main() {
    bench::banner("Ablation — model-level design choices",
                  "§3.2.2 / §3.3.1: merging and matrix ops shrink the model; the "
                  "combined model solves scheduling and allocation together");

    const arch::ArchSpec spec = arch::ArchSpec::eit();

    // 1. merge pass on/off for QRD and ARF.
    std::cout << "1) pipeline-merge pass (schedules the unmerged vs merged IR)\n";
    Table t1({"kernel", "IR", "|V|", "makespan (cc)", "nodes", "time (ms)"});
    struct K {
        const char* name;
        ir::Graph raw;
    } kernels[] = {{"QRD", apps::build_qrd()}, {"ARF", apps::build_arf()}};
    for (const K& k : kernels) {
        for (const bool merged : {false, true}) {
            const ir::Graph g = merged ? ir::merge_pipeline_ops(k.raw) : k.raw;
            sched::ScheduleOptions opts;
            opts.spec = spec;
            opts.timeout_ms = 15000;
            sched::Schedule s;
            const double med_ms =
                bench::median_of_3_ms([&] { s = sched::schedule_kernel(g, opts); });
            t1.add_row({k.name, merged ? "merged" : "unmerged",
                        std::to_string(g.num_nodes()),
                        s.feasible() ? std::to_string(s.makespan) : "-",
                        std::to_string(s.stats.nodes), format_fixed(med_ms, 0)});
        }
    }
    t1.print(std::cout);
    bench::note("QRD/ARF have no standalone pre/post ops in our DSL sources, so the "
                "pass is a no-op there; see fig6_pipeline_merge for graphs where it "
                "bites. Kept here to document the (non-)effect honestly.");

    // 2. matrix ops vs lowered on a matrix-heavy kernel.
    std::cout << "\n2) matrix ops vs lowered vector ops (matrix-heavy kernel)\n";
    dsl::Program mp("matrix_heavy");
    {
        const auto a = mp.in_matrix({dsl::Vector::Elems{1, 2, 3, 4},
                                     dsl::Vector::Elems{5, 6, 7, 8},
                                     dsl::Vector::Elems{9, 10, 11, 12},
                                     dsl::Vector::Elems{13, 14, 15, 16}},
                                    "A");
        const auto b = mp.in_matrix({dsl::Vector::Elems{1, 0, 0, 0},
                                     dsl::Vector::Elems{0, 1, 0, 0},
                                     dsl::Vector::Elems{0, 0, 1, 0},
                                     dsl::Vector::Elems{0, 0, 0, 1}},
                                    "B");
        const auto sum = dsl::m_add(a, b);
        const auto norms = dsl::m_squsum(sum);
        const auto s = mp.in_scalar(ir::Complex(0.5, 0), "half");
        const auto scaled = dsl::m_scale(sum, s);
        const auto x = mp.in_vector(1, -1, 1, -1, "x");
        const auto y = dsl::m_vmul(scaled, x);
        mp.mark_output(norms);
        mp.mark_output(y);
    }
    Table t2({"form", "|V|", "vector ops", "matrix ops", "makespan (cc)", "time (ms)"});
    const ir::Graph matrix_form = mp.ir();
    const ir::Graph lowered = ir::lower_matrix_ops(matrix_form);
    for (const auto* g : {&matrix_form, &lowered}) {
        sched::ScheduleOptions opts;
        opts.spec = spec;
        opts.timeout_ms = 15000;
        sched::Schedule s;
        const double med_ms =
            bench::median_of_3_ms([&] { s = sched::schedule_kernel(*g, opts); });
        const ir::GraphStats st = ir::graph_stats(spec, *g);
        t2.add_row({g == &matrix_form ? "matrix ops" : "lowered",
                    std::to_string(st.num_nodes), std::to_string(st.num_vector_ops),
                    std::to_string(st.num_matrix_ops),
                    s.feasible() ? std::to_string(s.makespan) : "-",
                    format_fixed(med_ms, 0)});
    }
    t2.print(std::cout);

    // 3. with vs without memory allocation in the model.
    std::cout << "\n3) combined scheduling+allocation vs scheduling only (QRD)\n";
    Table t3({"model", "makespan (cc)", "slots used", "nodes", "time (ms)"});
    const ir::Graph qrd = bench::kernel_qrd();
    for (const bool memory : {true, false}) {
        sched::ScheduleOptions opts;
        opts.spec = spec;
        opts.memory_allocation = memory;
        opts.timeout_ms = 15000;
        opts.warm_start = false;  // a warm QRD compile closes at the root
        sched::Schedule s;
        const double med_ms =
            bench::median_of_3_ms([&] { s = sched::schedule_kernel(qrd, opts); });
        t3.add_row({memory ? "with memory (paper)" : "scheduling only",
                    s.feasible() ? std::to_string(s.makespan) : "-",
                    std::to_string(s.slots_used), std::to_string(s.stats.nodes),
                    format_fixed(med_ms, 0)});
    }
    t3.print(std::cout);
    bench::note("Table 1's conclusion in ablation form: the memory constraints do not "
                "change the critical-path-dominated makespan, they only decide where "
                "data lives");
    return 0;
}
