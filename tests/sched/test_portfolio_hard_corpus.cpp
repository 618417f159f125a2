// The hard corpus (apps::kHardCorpus): 70-op random kernels whose 1-thread
// search does not prove within a second or two. Whatever the search
// manages within its budget, every schedule must pass check_schedule, must
// not be worse than the heuristic it was seeded with, and an Optimal
// answer must equal the recorded optimum. No proof within a time is
// required: under a loaded machine a 2-thread proof can miss any fixed
// deadline.
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

TEST(PortfolioHardCorpus, TwoThreads) { solve_corpus(2); }

}  // namespace
}  // namespace revec::sched
