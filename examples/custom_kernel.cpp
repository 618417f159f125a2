// Extending the system: write a new kernel (a complex 4-tap block FIR), use
// matrix operations and fusable pre/post stages, export the IR to XML and
// DOT, and retarget the scheduler to a custom architecture (wider lanes,
// slower scalar unit, smaller memory) — the "targeting other vector
// architectures" direction from the paper's future work.
#include <iostream>

#include "revec/dsl/eval.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/dot.hpp"
#include "revec/ir/passes.hpp"
#include "revec/ir/xml_io.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"

using namespace revec;

namespace {

ir::Graph build_block_fir() {
    dsl::Program p("block_fir");
    // Four consecutive input blocks (each a 4-vector) and four taps.
    std::array<dsl::Vector, 4> x;
    for (int i = 0; i < 4; ++i) {
        x[static_cast<std::size_t>(i)] =
            p.in_vector(1.0 + i, 0.5 * i, -1.0 + i, 2.0 - i, "x" + std::to_string(i));
    }
    std::array<dsl::Scalar, 4> h;
    const double taps[4] = {0.5, -0.25, 0.125, 0.0625};
    for (int i = 0; i < 4; ++i) {
        h[static_cast<std::size_t>(i)] =
            p.in_scalar(ir::Complex(taps[i], 0), "h" + std::to_string(i));
    }

    // y = sum_i h_i * x_i, accumulated with scale + add chains; then energy
    // per block via a matrix op, sorted (post-processing) for detection.
    dsl::Vector acc = dsl::v_scale(x[0], h[0]);
    for (int i = 1; i < 4; ++i) {
        const dsl::Vector term =
            dsl::v_scale(x[static_cast<std::size_t>(i)], h[static_cast<std::size_t>(i)]);
        acc = dsl::v_add(acc, term);
    }
    p.mark_output(acc);

    const dsl::Matrix blocks = p.in_matrix({x[0], x[1], x[2], x[3]});
    const dsl::Vector energy = dsl::m_squsum(blocks);
    const dsl::Vector ranked = dsl::post_sort(energy);
    p.mark_output(ranked);
    return p.ir();
}

void schedule_on(const char* name, const arch::ArchSpec& spec, const ir::Graph& g) {
    sched::ScheduleOptions opts;
    opts.spec = spec;
    opts.timeout_ms = 15000;
    const sched::Schedule s = sched::schedule_kernel(g, opts);
    if (!s.feasible()) {
        std::cout << name << ": infeasible within budget\n";
        return;
    }
    const auto problems = sched::verify_schedule(spec, g, s, opts);
    std::cout << name << ": makespan " << s.makespan << " cc, " << s.slots_used
              << " slots, verification "
              << (problems.empty() ? "clean" : problems.front()) << '\n';
}

}  // namespace

int main() {
    const ir::Graph raw = build_block_fir();
    ir::PassStats merge_stats;
    const ir::Graph g = ir::merge_pipeline_ops(raw, &merge_stats);
    std::cout << "block FIR kernel: " << raw.num_nodes() << " nodes, "
              << merge_stats.fused_pre + merge_stats.fused_post
              << " pipeline fusions -> " << g.num_nodes() << " nodes\n";

    // The IR is an artifact: ship it to the scheduler as XML, render DOT.
    ir::save_xml(g, "block_fir.xml");
    ir::save_dot(g, "block_fir.dot");
    const ir::Graph reloaded = ir::load_xml("block_fir.xml");
    std::cout << "IR exported to block_fir.xml / block_fir.dot; reload round-trip: "
              << (reloaded.num_nodes() == g.num_nodes() ? "ok" : "BROKEN") << "\n\n";

    // Schedule on the EIT instance...
    schedule_on("EIT (4 lanes)", arch::ArchSpec::eit(), g);

    // ...and on two retargets.
    arch::ArchSpec wide = arch::ArchSpec::eit();
    wide.vector_lanes = 8;
    wide.memory.banks = 32;
    wide.memory.banks_per_page = 8;
    wide.validate();
    schedule_on("wide retarget (8 lanes, 32 banks)", wide, g);

    arch::ArchSpec tiny = arch::ArchSpec::eit();
    tiny.scalar_latency = 12;   // slow accelerator
    tiny.memory.lines = 1;      // 16 slots only
    tiny.validate();
    schedule_on("constrained retarget (slow scalar, 16 slots)", tiny, g);
    return 0;
}
