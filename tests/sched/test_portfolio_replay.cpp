// Schedule-replay property test for the portfolio solver: every schedule it
// emits must pass the independent verifier and replay bit-exactly on the
// simulator against the DSL reference values (Fig. 3 matmul and the QRD
// kernel), and its makespan must equal the sequential solver's optimum.
#include <gtest/gtest.h>

#include <string>

#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/ir/passes.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"

namespace revec::sched {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

struct ReplayCase {
    const char* name;
    ir::Graph g;
};

std::vector<ReplayCase> replay_kernels() {
    std::vector<ReplayCase> cases;
    cases.push_back({"matmul", ir::merge_pipeline_ops(apps::build_matmul())});
    cases.push_back({"qrd", ir::merge_pipeline_ops(apps::build_qrd())});
    return cases;
}

TEST(PortfolioReplay, SchedulesVerifyAndSimulateBitExactly) {
    for (const ReplayCase& c : replay_kernels()) {
        ScheduleOptions seq_opts;
        seq_opts.spec = kSpec;
        seq_opts.timeout_ms = 60000;
        // Cold: both kernels' heuristics meet the makespan lower bound, so
        // a warm solve closes at the root and no portfolio worker runs.
        seq_opts.warm_start = false;
        const Schedule seq = schedule_kernel(c.g, seq_opts);
        ASSERT_TRUE(seq.proven_optimal()) << c.name;

        for (const int threads : {2, 4}) {
            ScheduleOptions opts = seq_opts;
            opts.solver.threads = threads;
            opts.solver.seed = 0xBEEFu;
            const Schedule s = schedule_kernel(c.g, opts);
            ASSERT_TRUE(s.proven_optimal()) << c.name << " threads=" << threads;
            EXPECT_EQ(s.makespan, seq.makespan) << c.name << " threads=" << threads;
            EXPECT_EQ(s.workers.size(), static_cast<std::size_t>(threads)) << c.name;

            const auto problems = verify_schedule(kSpec, c.g, s);
            ASSERT_TRUE(problems.empty())
                << c.name << " threads=" << threads << ": " << problems.front();

            const codegen::MachineProgram prog = codegen::generate_code(kSpec, c.g, s);
            const sim::SimResult run = sim::simulate(kSpec, c.g, prog);
            EXPECT_TRUE(run.outputs_match)
                << c.name << " threads=" << threads << " max err " << run.max_output_error;
            EXPECT_TRUE(run.violations.empty())
                << c.name << " threads=" << threads << ": " << run.violations.front();
            EXPECT_EQ(run.cycles, s.makespan) << c.name << " threads=" << threads;
        }
    }
}

TEST(PortfolioReplay, SlotConstrainedSchedulesStayVerified) {
    // Reduced-memory configurations (the Table 1 regime) stress the slot
    // phase; the portfolio must still only emit verifiable schedules.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    for (const int slots : {16, 12}) {
        ScheduleOptions opts;
        opts.spec = kSpec;
        opts.num_slots = slots;
        opts.timeout_ms = 60000;
        opts.solver.threads = 4;
        const Schedule s = schedule_kernel(g, opts);
        if (!s.feasible()) {
            EXPECT_EQ(s.status, cp::SolveStatus::Unsat) << slots;
            continue;
        }
        const auto problems = verify_schedule(kSpec, g, s, opts);
        ASSERT_TRUE(problems.empty()) << "slots=" << slots << ": " << problems.front();
        EXPECT_LE(s.slots_used, slots);
    }
}

TEST(PortfolioReplay, ModuloPortfolioMatchesSequentialII) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    pipeline::ModuloOptions seq;
    seq.spec = kSpec;
    seq.timeout_ms = 60000;
    const pipeline::ModuloResult a = pipeline::modulo_schedule(g, seq);
    ASSERT_TRUE(a.feasible());

    pipeline::ModuloOptions par = seq;
    par.solver.threads = 4;
    const pipeline::ModuloResult b = pipeline::modulo_schedule(g, par);
    ASSERT_TRUE(b.feasible());
    EXPECT_EQ(b.initial_ii, a.initial_ii);
}

}  // namespace
}  // namespace revec::sched
