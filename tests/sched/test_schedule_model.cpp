// schedule_model is the re-entrant core the revecd solver pool calls: it
// must reproduce schedule_kernel bit for bit from the lowered model alone
// — including after a JSON round trip, which is exactly the path a solve
// request takes through the service (revecc --dump-model -> wire ->
// from_json -> schedule_model).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/model/json.hpp"
#include "revec/obs/trace.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"

namespace revec::sched {
namespace {

ir::Graph kernel_by_name(const std::string& name) {
    if (name == "matmul") return ir::merge_pipeline_ops(apps::build_matmul());
    if (name == "qrd") return ir::merge_pipeline_ops(apps::build_qrd());
    if (name == "arf") return ir::merge_pipeline_ops(apps::build_arf());
    throw revec::Error("unknown kernel " + name);
}

void expect_same_schedule(const Schedule& a, const Schedule& b, const std::string& what) {
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.makespan, b.makespan) << what;
    EXPECT_EQ(a.slots_used, b.slots_used) << what;
    EXPECT_EQ(a.start, b.start) << what;
    EXPECT_EQ(a.slot, b.slot) << what;
}

class ScheduleModelDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(ScheduleModelDifferential, MatchesScheduleKernelBitForBit) {
    const ir::Graph g = kernel_by_name(GetParam());
    ScheduleOptions opts;
    opts.timeout_ms = 60000;

    const Schedule via_kernel = schedule_kernel(g, opts);
    const Schedule via_model =
        schedule_model(lower_for_schedule(g, opts), model_solve_options(opts));
    expect_same_schedule(via_kernel, via_model, GetParam());
    EXPECT_EQ(via_kernel.stats.nodes, via_model.stats.nodes) << GetParam();
}

TEST_P(ScheduleModelDifferential, SurvivesJsonRoundTrip) {
    const ir::Graph g = kernel_by_name(GetParam());
    ScheduleOptions opts;
    opts.timeout_ms = 60000;

    const model::KernelModel km = lower_for_schedule(g, opts);
    const model::KernelModel wire = model::from_json(model::to_json(km));
    expect_same_schedule(schedule_model(km, model_solve_options(opts)),
                         schedule_model(wire, model_solve_options(opts)), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, ScheduleModelDifferential,
                         ::testing::Values("matmul", "qrd", "arf"));

TEST(ScheduleModel, ZeroDeadlineStillVerifyClean) {
    const model::KernelModel km =
        lower_for_schedule(kernel_by_name("qrd"), ScheduleOptions{});
    ModelSolveOptions mo;
    mo.timeout_ms = 0;
    const Schedule s = schedule_model(km, mo);
    ASSERT_TRUE(s.feasible());
    EXPECT_EQ(s.status, cp::SolveStatus::HeuristicFallback);
    EXPECT_TRUE(model::check_schedule(km, s.start, s.slot, s.makespan).empty());
}

TEST(ScheduleModel, HeuristicOnlyMatchesKernelPath) {
    const ir::Graph g = kernel_by_name("matmul");
    ScheduleOptions opts;
    opts.heuristic_only = true;
    expect_same_schedule(
        schedule_kernel(g, opts),
        schedule_model(lower_for_schedule(g, opts), model_solve_options(opts)),
        "heuristic-only");
}

TEST(ScheduleModel, ZeroSlotsWithVectorDataIsUnsat) {
    ScheduleOptions opts;
    opts.num_slots = 0;
    const model::KernelModel km = lower_for_schedule(kernel_by_name("matmul"), opts);
    const Schedule s = schedule_model(km, ModelSolveOptions{});
    EXPECT_EQ(s.status, cp::SolveStatus::Unsat);
    // schedule_kernel reaches the same answer through schedule_model.
    EXPECT_EQ(schedule_kernel(kernel_by_name("matmul"), opts).status, cp::SolveStatus::Unsat);
}

TEST(ScheduleModel, SearchSpanEndsWithReturnedMakespan) {
    // The warm MATMUL proof finds nothing below the heuristic's 11 (the
    // search itself reports Unsat); the span must still close with the
    // makespan schedule_model returns, after one emission and one search.
    obs::TraceSink sink(obs::TraceLevel::Phase);
    ScheduleOptions opts;
    opts.timeout_ms = 60000;
    opts.solver.trace = &sink;
    const Schedule s = schedule_kernel(kernel_by_name("matmul"), opts);
    ASSERT_TRUE(s.proven_optimal());
    EXPECT_EQ(s.makespan, 11);

    std::ostringstream os;
    sink.write_jsonl(os);
    const obs::ParsedTrace trace = obs::parse_trace(os.str());
    ASSERT_EQ(trace.tracks.size(), 1u);  // one worker: no worker track
    int emits = 0;
    int searches = 0;
    for (const obs::ParsedEvent& e : trace.tracks[0].events) {
        if (e.kind != 'E') continue;
        if (e.name == "emit_cp") ++emits;
        if (e.name == "search") {
            ++searches;
            EXPECT_EQ(e.args.at("makespan"), s.makespan);
            EXPECT_EQ(e.args.at("nodes"), s.stats.nodes);
        }
    }
    EXPECT_EQ(emits, 1);
    EXPECT_EQ(searches, 1);
}

TEST(ScheduleModel, TraceRidReachesPortfolioWorkerSpans) {
    // A service-correlated solve (solver.trace_rid != 0) must stamp the
    // rid end to end: the rid instant and the search span payload on
    // the driver track, and a "rid" arg on every worker span begin.
    ScheduleOptions opts;
    opts.timeout_ms = 60000;
    const model::KernelModel km = lower_for_schedule(kernel_by_name("matmul"), opts);

    obs::TraceSink sink(obs::TraceLevel::Phase);
    ModelSolveOptions mo = model_solve_options(opts);
    mo.solver.threads = 2;
    mo.solver.trace = &sink;
    mo.solver.trace_rid = 4242;
    const Schedule s = schedule_model(km, mo);
    ASSERT_TRUE(s.feasible());

    std::ostringstream os;
    sink.write_jsonl(os);
    const obs::ParsedTrace trace = obs::parse_trace(os.str());
    bool saw_rid_instant = false;
    std::int64_t worker_spans_with_rid = 0;
    for (const obs::ParsedTrack& track : trace.tracks) {
        for (const obs::ParsedEvent& e : track.events) {
            if (e.kind == 'I' && e.name == "rid" && e.args.count("rid") > 0 &&
                e.args.at("rid") == 4242) {
                saw_rid_instant = true;
            }
            if (e.kind == 'B' && e.name == "worker" && e.args.count("rid") > 0 &&
                e.args.at("rid") == 4242) {
                ++worker_spans_with_rid;
            }
        }
    }
    EXPECT_TRUE(saw_rid_instant);
    EXPECT_EQ(worker_spans_with_rid, 2);
}

TEST(ScheduleModel, NoRidKeepsSpanPayloadsUnchanged) {
    // trace_rid == 0 (the standalone revecc path) must not leak a "rid"
    // arg anywhere — the golden-trace tests depend on byte-identical
    // output, this guards the conditional-payload contract directly.
    ScheduleOptions opts;
    opts.timeout_ms = 60000;
    const model::KernelModel km = lower_for_schedule(kernel_by_name("matmul"), opts);

    obs::TraceSink sink(obs::TraceLevel::Phase);
    ModelSolveOptions mo = model_solve_options(opts);
    mo.solver.threads = 2;
    mo.solver.trace = &sink;
    const Schedule s = schedule_model(km, mo);
    ASSERT_TRUE(s.feasible());

    std::ostringstream os;
    sink.write_jsonl(os);
    EXPECT_EQ(os.str().find("\"rid\""), std::string::npos);
}

}  // namespace
}  // namespace revec::sched
