// Property: ANY schedule accepted by sched::verify — whether it came from
// the heuristic ladder or from the exact CP solver — simulates with
// bit-exact outputs and zero memory-access conflicts. Exercised on a
// 25-instance random corpus plus the application kernels, and every
// heuristic schedule the model checker passes over a 300-kernel pool.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "revec/apps/random_kernel.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
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

// Checker implies simulator, heuristic only: 75 seeded kernels of 20-30
// ops, each with fusable and matrix ops on and off. Every schedule that
// model::check_schedule passes on the model it was solved on must simulate
// with no access violation, matching outputs and the scheduled makespan.
TEST(VerifiedHeuristicSchedulesSimulate, PoolOf300) {
    std::mt19937_64 rng(20150207);
    int checked = 0;
    for (int i = 0; i < 75; ++i) {
        const auto seed = static_cast<unsigned>(rng() & 0xffffffffu);
        const int num_ops = 20 + static_cast<int>(rng() % 11);
        for (const bool fusable : {false, true}) {
            for (const bool matrix : {false, true}) {
                const std::string name = "seed " + std::to_string(seed) + " ops " +
                                         std::to_string(num_ops) +
                                         (fusable ? " fusable" : "") + (matrix ? " matrix" : "");
                const ir::Graph g = ir::merge_pipeline_ops(
                    apps::build_random_kernel({seed, num_ops, matrix, fusable}));
                sched::ScheduleOptions so;
                so.heuristic_only = true;
                const model::KernelModel km = sched::lower_for_schedule(g, so);
                const sched::Schedule s = sched::schedule_model(km, sched::model_solve_options(so));
                if (!s.feasible() ||
                    !model::check_schedule(km, s.start, s.slot, s.makespan).empty()) {
                    continue;
                }
                ++checked;
                const sim::SimResult run =
                    sim::simulate(kSpec, g, codegen::generate_code(kSpec, g, s));
                EXPECT_TRUE(run.violations.empty()) << name << ": " << run.violations.front();
                EXPECT_TRUE(run.outputs_match) << name << " max err " << run.max_output_error;
                EXPECT_EQ(run.cycles, s.makespan) << name;
            }
        }
    }
    // The ladder's last rung always allocates on these sizes.
    EXPECT_EQ(checked, 300);
}

}  // namespace
}  // namespace revec::heur
