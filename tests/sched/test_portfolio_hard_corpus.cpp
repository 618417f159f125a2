// The hard corpus (apps::kHardCorpus): 70-op random kernels whose search
// runs past the first restart limit (512 failures). Whatever the search
// manages within its budget, every schedule must pass check_schedule, must
// not be worse than the heuristic it was seeded with, and an Optimal
// answer must equal the recorded optimum. No proof within a time is
// required: under a loaded machine a 2-thread proof can miss any fixed
// deadline. One 1-thread proof is pinned node for node, so a change to the
// restart schedule fails here.
#include <gtest/gtest.h>

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

TEST(PortfolioHardCorpus, TwoThreads) { solve_corpus(2); }

}  // namespace
}  // namespace revec::sched
