// Property: the §3.5 search's first-fail op phase never loses to the
// smallest-min op order it replaced. On seeded vector-only random kernels
// the warm sequential solve (schedule_model's default path) must prove its
// optimum with a verify-clean schedule, and a replay of the same warm
// search with the op phase switched back to smallest-min must reach the
// same optimum wherever it proves one — never with fewer nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>

#include "revec/apps/random_kernel.hpp"
#include "revec/cp/search.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"

namespace revec::sched {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

/// Failure cap of the smallest-min replay; a few kernels need far more.
constexpr std::int64_t kOldOrderMaxFailures = 20000;

/// Outcome of the warm search under the smallest-min op order.
struct OldOrder {
    bool proved = false;
    int makespan = 0;
    std::int64_t nodes = 0;
};

/// Replay schedule_model's warm sequential search on `km0` with the op
/// phase branching smallest-min first: same heuristic incumbent, same
/// horizon raise, same emission, only phases[0]'s variable selection
/// differs.
OldOrder solve_smallest_min_ops(const model::KernelModel& km0) {
    ModelSolveOptions heur_opts;
    heur_opts.heuristic_only = true;
    const Schedule h = schedule_model(km0, heur_opts);
    EXPECT_EQ(h.status, cp::SolveStatus::HeuristicFallback);

    const model::KernelModel km =
        h.makespan + 1 > km0.horizon
            ? model::with_horizon(km0, std::max(h.makespan + 1, km0.critical_path))
            : km0;
    cp::Store store;
    model::VarTable vt = model::emit_cp(store, km);
    EXPECT_EQ(vt.phases[0].label, "ops");
    vt.phases[0].var_select = cp::VarSelect::SmallestMin;

    std::atomic<std::int64_t> incumbent{h.makespan};
    cp::SearchOptions opts;
    opts.shared_bound = &incumbent;
    opts.max_failures = kOldOrderMaxFailures;
    const cp::SolveResult r = cp::solve(store, vt.phases, vt.makespan, opts);

    OldOrder out;
    out.nodes = r.stats.nodes;
    // Unsat under a warm bound: nothing beats the heuristic incumbent.
    out.proved = r.status == cp::SolveStatus::Optimal || r.status == cp::SolveStatus::Unsat;
    out.makespan = r.status == cp::SolveStatus::Optimal ? r.value_of(vt.makespan) : h.makespan;
    return out;
}

class FirstFailOpPhase : public ::testing::TestWithParam<int> {};

TEST_P(FirstFailOpPhase, NeverLosesToSmallestMin) {
    const int num_ops = GetParam();
    int wins = 0;
    int old_timeouts = 0;
    for (unsigned seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        apps::RandomKernelOptions kopts;
        kopts.seed = seed;
        kopts.num_ops = num_ops;
        kopts.use_matrix = false;
        const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));

        const model::KernelModel km = lower_for_schedule(g);
        ModelSolveOptions opts;
        opts.timeout_ms = 60000;
        const Schedule s = schedule_model(km, opts);
        ASSERT_TRUE(s.proven_optimal());
        EXPECT_TRUE(verify_schedule(kSpec, g, s).empty());

        const OldOrder old = solve_smallest_min_ops(km);
        if (old.proved) {
            EXPECT_EQ(s.makespan, old.makespan);
        } else {
            ++old_timeouts;
        }
        EXPECT_LE(s.stats.nodes, old.nodes);
        if (s.stats.nodes < old.nodes) ++wins;
    }
    RecordProperty("wins", wins);
    RecordProperty("old_order_timeouts", old_timeouts);
}

INSTANTIATE_TEST_SUITE_P(OpCounts, FirstFailOpPhase, ::testing::Values(12, 25));

}  // namespace
}  // namespace revec::sched
