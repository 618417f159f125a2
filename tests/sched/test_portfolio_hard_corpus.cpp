// The hard corpus (apps::kHardCorpus): 70-op random kernels whose search
// runs past the first restart limit (512 failures). Whatever the search
// manages within its budget, every schedule must pass check_schedule, must
// not be worse than the heuristic it was seeded with, and an Optimal
// answer must equal the recorded optimum. No proof within a time is
// required: under a loaded machine a 2-thread proof can miss any fixed
// deadline. Every 1-thread proof is pinned node for node, so a change to the
// search order, the restart schedule or a propagator's pruning fails here.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>

#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/obs/trace.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/sched/model.hpp"

namespace revec::sched {
namespace {

/// The makespan the `heuristic` span ended with (-1: no heuristic answer).
std::int64_t heuristic_makespan(const obs::TraceSink& sink) {
    std::ostringstream os;
    sink.write_jsonl(os);
    for (const obs::ParsedTrack& track : obs::parse_trace(os.str()).tracks) {
        for (const obs::ParsedEvent& e : track.events) {
            if (e.kind == 'E' && e.name == "heuristic" && e.args.count("makespan") > 0) {
                return e.args.at("makespan");
            }
        }
    }
    return -1;
}

void solve_corpus(int threads) {
    for (const apps::HardKernel& k : apps::kHardCorpus) {
        ScheduleOptions opts;
        opts.timeout_ms = 1000;
        opts.solver.threads = threads;
        const model::KernelModel km = lower_for_schedule(
            ir::merge_pipeline_ops(apps::build_random_kernel(k.options())), opts);
        obs::TraceSink sink(obs::TraceLevel::Phase);
        ModelSolveOptions mo = model_solve_options(opts);
        mo.solver.trace = &sink;
        const Schedule s = schedule_model(km, mo);

        SCOPED_TRACE("seed " + std::to_string(k.seed) + ", " + std::to_string(threads) +
                     " threads");
        ASSERT_TRUE(s.feasible());
        const std::vector<std::string> problems =
            model::check_schedule(km, s.start, s.slot, s.makespan);
        EXPECT_TRUE(problems.empty()) << problems.front();
        const std::int64_t heuristic = heuristic_makespan(sink);
        ASSERT_GT(heuristic, 0);
        EXPECT_LE(s.makespan, heuristic);
        EXPECT_GE(s.makespan, k.optimum);
        if (s.proven_optimal()) {
            EXPECT_EQ(s.makespan, k.optimum);
        }
    }
}

TEST(PortfolioHardCorpus, OneThread) { solve_corpus(1); }

TEST(PortfolioHardCorpus, OneThreadRestartGolden) {
    // A warm 1-thread proof whose tree crosses the first restart limit (512
    // failures): its counters pin where the search restarts and the jitter
    // seed the second run draws. (micro_cp_kernel's hole-heavy probe, which
    // restarts 7 times, pins the x2+1 growth.) The deadline is far past
    // the ~30 ms it takes.
    static_assert(apps::kHardCorpus[7].seed == 86);
    const apps::HardKernel& k = apps::kHardCorpus[7];
    ScheduleOptions opts;
    opts.timeout_ms = 60000;
    const model::KernelModel km = lower_for_schedule(
        ir::merge_pipeline_ops(apps::build_random_kernel(k.options())), opts);
    const Schedule s = schedule_model(km, model_solve_options(opts));
    ASSERT_EQ(s.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(s.makespan, k.optimum);
    EXPECT_TRUE(model::check_schedule(km, s.start, s.slot, s.makespan).empty());
    EXPECT_EQ(s.stats.nodes, 1663);
    EXPECT_EQ(s.stats.failures, 790);
    EXPECT_EQ(s.stats.restarts, 1);
}

/// One kernel's warm 1-thread proof, counter for counter.
struct GoldenTree {
    unsigned seed;
    int makespan;
    std::int64_t nodes;
    std::int64_t failures;
    std::int64_t restarts;
    std::int64_t solutions;
    std::int64_t propagations;
    std::int64_t wakeups;
};

TEST(PortfolioHardCorpus, OneThreadGoldenTrees) {
    // Every corpus kernel, warm-solved at 1 thread with no deadline: each
    // proof finishes and its tree is bit-identical from run to run, so a
    // change to the search order, the restart schedule or any propagator's
    // pruning moves a tree column here. propagations and wakeups also move
    // with the engine's drain order, which never changes a tree.
    constexpr GoldenTree kGolden[] = {
        {3, 44, 3484, 1705, 2, 2, 67891, 285821},
        {14, 47, 10522, 5125, 3, 2, 179124, 562867},
        {20, 44, 2127, 1015, 1, 3, 36902, 101956},
        {21, 48, 262871, 131025, 8, 10, 1051063, 2546303},
        {31, 39, 1814, 862, 1, 2, 36853, 96470},
        {66, 52, 32248, 16067, 5, 2, 2225371, 7669870},
        {67, 57, 2831, 1368, 1, 6, 37764, 97680},
        {86, 44, 1663, 790, 1, 2, 22453, 52952},
    };
    static_assert(std::size(kGolden) == std::size(apps::kHardCorpus));
    for (std::size_t i = 0; i < std::size(kGolden); ++i) {
        const apps::HardKernel& k = apps::kHardCorpus[i];
        const GoldenTree& want = kGolden[i];
        ASSERT_EQ(k.seed, want.seed);
        ScheduleOptions opts;  // timeout_ms -1: no deadline
        const model::KernelModel km = lower_for_schedule(
            ir::merge_pipeline_ops(apps::build_random_kernel(k.options())), opts);
        const Schedule s = schedule_model(km, model_solve_options(opts));
        SCOPED_TRACE("seed " + std::to_string(k.seed));
        ASSERT_EQ(s.status, cp::SolveStatus::Optimal);
        EXPECT_EQ(s.makespan, want.makespan);
        EXPECT_EQ(s.makespan, k.optimum);
        EXPECT_TRUE(model::check_schedule(km, s.start, s.slot, s.makespan).empty());
        EXPECT_EQ(s.stats.nodes, want.nodes);
        EXPECT_EQ(s.stats.failures, want.failures);
        EXPECT_EQ(s.stats.restarts, want.restarts);
        EXPECT_EQ(s.stats.solutions, want.solutions);
        EXPECT_EQ(s.prop_stats.propagations, want.propagations);
        EXPECT_EQ(s.prop_stats.wakeups, want.wakeups);
    }
}

TEST(PortfolioHardCorpus, TwoThreads) { solve_corpus(2); }

}  // namespace
}  // namespace revec::sched
