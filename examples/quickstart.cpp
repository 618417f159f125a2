// Quickstart: write a kernel in the DSL, schedule it with memory
// allocation, generate machine code, and run it on the simulator.
//
//   $ ./quickstart [--threads=N]
//
// The program computes one Gram-Schmidt step on two complex vectors:
//   q = a / ||a||,  r = <b, q>,  b' = b - r q
// and prints the IR statistics, the optimal schedule, the machine listing,
// and the simulated-vs-reference outputs.
#include <algorithm>
#include <iostream>
#include <string>

#include "revec/codegen/codegen.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"

using namespace revec;

int main(int argc, char** argv) {
    // Optional: solve with the parallel portfolio instead of the
    // sequential branch-and-bound (same optimum either way).
    int threads = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--threads=", 0) == 0) {
            try {
                threads = std::max(1, std::stoi(arg.substr(10)));
            } catch (const std::exception&) {
                std::cerr << "quickstart: bad --threads value '" << arg.substr(10) << "'\n";
                return 2;
            }
        } else {
            std::cerr << "usage: quickstart [--threads=N]\n";
            return 2;
        }
    }

    // 1. Write the kernel in the DSL. Every operation computes its value
    //    eagerly (debug it like ordinary code) and traces an IR node.
    dsl::Program program("gram_schmidt_step");
    const dsl::Vector a = program.in_vector({ir::Complex(1, 2), ir::Complex(3, -1),
                                             ir::Complex(0, 1), ir::Complex(2, 0)},
                                            "a");
    const dsl::Vector b = program.in_vector({ir::Complex(2, 1), ir::Complex(1, 1),
                                             ir::Complex(1, 0), ir::Complex(0, 2)},
                                            "b");
    const dsl::Scalar norm2 = dsl::v_squsum(a);          // vector core
    const dsl::Scalar inv = dsl::s_rsqrt(norm2);         // scalar accelerator
    const dsl::Vector q = dsl::v_scale(a, inv);          // vector core
    const dsl::Scalar r = dsl::v_dotP(b, q);             // vector core
    const dsl::Vector b_next = dsl::v_axpy(b, r, q);     // vector core
    program.mark_output(q);
    program.mark_output(b_next);

    std::cout << "DSL says <b', q> should be ~0; eager value check: "
              << std::abs(dsl::v_dotP(b_next, q).value()) << "\n\n";

    // 2. The traced IR.
    const ir::Graph& g = program.ir();
    const arch::ArchSpec spec = arch::ArchSpec::eit();
    const ir::GraphStats st = ir::graph_stats(spec, g);
    std::cout << "IR: |V|=" << st.num_nodes << " |E|=" << st.num_edges
              << " critical path=" << st.critical_path << " cc\n";

    // 3. Schedule + memory allocation with the CP model.
    sched::ScheduleOptions opts;
    opts.spec = spec;
    opts.solver.threads = threads;
    const sched::Schedule sched = sched::schedule_kernel(g, opts);
    std::cout << "schedule: makespan=" << sched.makespan << " cc, slots used="
              << sched.slots_used << ", solver " << sched.stats.nodes << " nodes in "
              << sched.stats.time_ms << " ms"
              << (threads > 1 ? " (" + std::to_string(threads) + "-worker portfolio)" : "")
              << "\n";
    const auto problems = sched::verify_schedule(spec, g, sched);
    std::cout << "independent verification: "
              << (problems.empty() ? "clean" : problems.front()) << "\n\n";

    // 4. Machine code.
    const codegen::MachineProgram prog = codegen::generate_code(spec, g, sched);
    std::cout << "machine listing:\n" << prog.to_listing(g);

    // 5. Execute on the simulator and compare with the reference.
    const sim::SimResult run = sim::simulate(spec, g, prog);
    std::cout << "\nsimulation: " << run.cycles << " cycles, "
              << run.reconfigurations << " reconfigurations, outputs "
              << (run.outputs_match ? "MATCH" : "MISMATCH")
              << " (max error " << run.max_output_error << ")\n";
    return run.clean() ? 0 : 1;
}
