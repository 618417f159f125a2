// Property: ANY schedule accepted by sched::verify — whether it came from
// the heuristic ladder or from the exact CP solver — simulates with
// bit-exact outputs and zero memory-access conflicts. Exercised on a
// 25-instance random corpus plus the application kernels.
#include <gtest/gtest.h>

#include "revec/apps/random_kernel.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"

namespace revec::heur {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

/// If `s` passes the verifier, push it through codegen + simulation and
/// insist on bit-exact outputs with no conflicts. Schedules the verifier
/// rejects are skipped — the property quantifies over accepted schedules.
void check_accepted_schedule_simulates(const ir::Graph& g, const sched::Schedule& s,
                                       const char* kind, unsigned seed) {
    if (!s.feasible()) return;
    const auto problems = sched::verify_schedule(kSpec, g, s);
    if (!problems.empty()) {
        // A schedule we emitted must never flunk its own verifier.
        FAIL() << kind << " seed " << seed << " rejected: " << problems.front();
    }
    const codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
    const sim::SimResult run = sim::simulate(kSpec, g, prog);
    EXPECT_TRUE(run.outputs_match)
        << kind << " seed " << seed << " max err " << run.max_output_error;
    EXPECT_TRUE(run.violations.empty())
        << kind << " seed " << seed << ": " << run.violations.front();
}

class VerifiedSchedulesSimulate : public ::testing::TestWithParam<unsigned> {};

TEST_P(VerifiedSchedulesSimulate, HeuristicAndExact) {
    apps::RandomKernelOptions kopts;
    kopts.seed = GetParam();
    kopts.num_ops = 20 + static_cast<int>(GetParam() % 5) * 5;
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));

    sched::ScheduleOptions heur_opts;
    heur_opts.heuristic_only = true;
    const sched::Schedule h = sched::schedule_kernel(g, heur_opts);
    ASSERT_TRUE(h.feasible()) << "heuristic seed " << GetParam();
    check_accepted_schedule_simulates(g, h, "heuristic", GetParam());

    sched::ScheduleOptions cp_opts;
    cp_opts.timeout_ms = 6000;
    const sched::Schedule s = sched::schedule_kernel(g, cp_opts);
    check_accepted_schedule_simulates(g, s, "cp", GetParam());

    // The exact solver, when it proves optimality, can only match or beat
    // the heuristic incumbent.
    if (s.proven_optimal()) {
        EXPECT_LE(s.makespan, h.makespan) << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Corpus25, VerifiedSchedulesSimulate,
                         ::testing::Range(1u, 26u));

}  // namespace
}  // namespace revec::heur
