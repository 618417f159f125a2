// Search-tree golden suite for the propagation engine at the application
// level: scheduling the paper kernels (matmul from Listing 1 / Table 1,
// QRD §4.1, ARF, DETECT) and the modulo pipeliner must explore exactly the
// tree recorded below — same node, failure and solution counts, same
// optimum — and return verify-clean schedules. The flat counts are the
// trees of the §3.5 search with a first-fail op phase (ops -> data ->
// slots), recorded when the op phase switched from smallest-min to
// first-fail and again when the flat makespan variable started at
// model::makespan_lower_bound. The paper kernels' heuristics meet that
// bound, so their warm solves close without a search: their trees are
// pinned cold, next to warm trees on random kernels whose heuristic
// misses the bound. The modulo vectors predate the op-phase switch
// (emit_modulo's phases did not change) and were recorded while the
// original wake-on-any-change, single-FIFO, full-snapshot engine still
// existed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/obs/trace.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/support/assert.hpp"

namespace revec::sched {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

ir::Graph kernel_by_name(const std::string& name) {
    if (name == "matmul") return ir::merge_pipeline_ops(apps::build_matmul());
    if (name == "qrd") return ir::merge_pipeline_ops(apps::build_qrd());
    if (name == "arf") return ir::merge_pipeline_ops(apps::build_arf());
    if (name == "detect") return ir::merge_pipeline_ops(apps::build_detect());
    throw revec::Error("unknown kernel " + name);
}

/// One recorded proof.
struct GoldenProof {
    const char* kernel;
    std::int64_t nodes;
    std::int64_t failures;
    std::int64_t solutions;
    int makespan;
};

void PrintTo(const GoldenProof& c, std::ostream* os) { *os << '"' << c.kernel << '"'; }

/// Schedule `g` under `options` and check the proof against `want`.
void expect_golden(const ir::Graph& g, const ScheduleOptions& options,
                   const GoldenProof& want) {
    SCOPED_TRACE(want.kernel);
    const Schedule s = schedule_kernel(g, options);
    ASSERT_TRUE(s.proven_optimal());
    EXPECT_EQ(s.makespan, want.makespan);
    EXPECT_EQ(s.stats.nodes, want.nodes);
    EXPECT_EQ(s.stats.failures, want.failures);
    EXPECT_EQ(s.stats.solutions, want.solutions);
    EXPECT_TRUE(verify_schedule(kSpec, g, s).empty());
}

class EngineParity : public ::testing::TestWithParam<GoldenProof> {};

TEST_P(EngineParity, ScheduleKernelIsNodeIdenticalAcrossEngines) {
    // Cold: a warm solve of a paper kernel closes at the root.
    ScheduleOptions options;
    options.timeout_ms = 60000;
    options.warm_start = false;
    expect_golden(kernel_by_name(GetParam().kernel), options, GetParam());
}

// The floor lets the first solution at the bound end each proof.
INSTANTIATE_TEST_SUITE_P(Kernels, EngineParity,
                         ::testing::Values(GoldenProof{"matmul", 56, 29, 1, 11},
                                           GoldenProof{"qrd", 172, 87, 1, 142},
                                           GoldenProof{"arf", 172, 87, 1, 57},
                                           GoldenProof{"detect", 60, 31, 1, 34}));

TEST(EngineParity, ColdSearchIsNodeIdenticalToo) {
    // Without the heuristic warm start the exact search runs the full
    // tree: the cold MATMUL proof `revecc --warm-start=off` reports, with
    // the engine counters CI pins for it.
    ScheduleOptions options;
    options.timeout_ms = 60000;
    options.warm_start = false;
    const ir::Graph g = kernel_by_name("matmul");
    expect_golden(g, options, {"matmul", 56, 29, 1, 11});
    const Schedule s = schedule_kernel(g, options);
    EXPECT_EQ(s.prop_stats.propagations, 539);
    EXPECT_EQ(s.prop_stats.wakeups, 1039);
}

/// A 20-op random kernel with matrix ops whose heuristic makespan misses
/// the makespan lower bound, so the warm solve still searches.
struct WarmProof {
    unsigned seed;
    std::int64_t nodes;
    std::int64_t failures;
    std::int64_t solutions;
    int makespan;
};

void PrintTo(const WarmProof& c, std::ostream* os) { *os << "seed" << c.seed; }

class WarmEngineParity : public ::testing::TestWithParam<WarmProof> {};

TEST_P(WarmEngineParity, WarmSearchIsNodeIdenticalWhereTheBoundIsMissed) {
    const WarmProof& want = GetParam();
    apps::RandomKernelOptions kopts;
    kopts.seed = want.seed;
    kopts.num_ops = 20;
    ScheduleOptions options;
    options.timeout_ms = 60000;
    const std::string name = "random seed " + std::to_string(want.seed);
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));
    expect_golden(g, options,
                  {name.c_str(), want.nodes, want.failures, want.solutions, want.makespan});
    EXPECT_FALSE(schedule_kernel(g, options).bound_closed);
}

// Seed 8's heuristic is optimal (the search proves it, Unsat below 24);
// seeds 15, 19 and 28 improve on theirs (27, 39, 37).
INSTANTIATE_TEST_SUITE_P(Kernels, WarmEngineParity,
                         ::testing::Values(WarmProof{8, 16, 9, 0, 24},
                                           WarmProof{15, 248, 125, 3, 24},
                                           WarmProof{19, 102, 52, 1, 38},
                                           WarmProof{28, 80, 41, 1, 36}));

TEST(EngineParity, ModuloPipelinerIsNodeIdenticalAcrossEngines) {
    const pipeline::ModuloResult r =
        pipeline::modulo_schedule(kernel_by_name("arf"), pipeline::ModuloOptions{});
    ASSERT_TRUE(r.feasible());
    EXPECT_EQ(r.initial_ii, 7);
    EXPECT_EQ(r.actual_ii, 13);
    EXPECT_EQ(r.reconfigs, 6);
    const std::vector<int> residue = {
        -1, -1, 0, -1, -1, -1, 0, -1, -1, -1, 0, -1, -1, -1, 0, -1, -1, -1, 1, -1, -1,
        -1, 1, -1, -1, -1, 1, -1, -1, -1, 1, -1, 2, -1, 2, -1, 2, -1, 2, -1, -1, 3, -1,
        -1, 3, -1, -1, 3, -1, -1, 3, -1, -1, 4, -1, -1, 4, -1, -1, 4, -1, -1, 4, -1, 5,
        -1, 5, -1, -1, 6, -1, -1, 6, -1, -1, 5, -1, -1, 5, -1, -1, 6, -1, -1, 6, -1};
    const std::vector<int> stage = {
        -1, -1, 0, -1, -1, -1, 0, -1, -1, -1, 0, -1, -1, -1, 0, -1, -1, -1, 0, -1, -1,
        -1, 0, -1, -1, -1, 0, -1, -1, -1, 0, -1, 1, -1, 1, -1, 1, -1, 1, -1, -1, 2, -1,
        -1, 2, -1, -1, 2, -1, -1, 2, -1, -1, 3, -1, -1, 3, -1, -1, 3, -1, -1, 3, -1, 4,
        -1, 4, -1, -1, 5, -1, -1, 5, -1, -1, 7, -1, -1, 7, -1, -1, 8, -1, -1, 8, -1};
    EXPECT_EQ(r.residue, residue);
    EXPECT_EQ(r.stage, stage);
}

/// One recorded Table 3 (right half) scan: reconfigurations optimised
/// inside the model. The trees and kernels were recorded while the scan
/// still emitted a model for every II below the incumbent (QRD 4, ARF 2);
/// now the scan skips each II whose reconfiguration budget is below
/// model::modulo_reconfig_floor, and emits one model for each kernel.
struct GoldenTable3 {
    const char* kernel;
    std::int64_t nodes;
    std::int64_t failures;
    std::int64_t solutions;
    int initial_ii;
    int reconfigs;
    int actual_ii;
    std::int64_t emit_vars;   ///< size of the one emitted model
    std::int64_t emit_props;
    std::vector<int> residue;
    std::vector<int> stage;
};

void PrintTo(const GoldenTable3& c, std::ostream* os) { *os << '"' << c.kernel << '"'; }

class Table3Parity : public ::testing::TestWithParam<GoldenTable3> {};

TEST_P(Table3Parity, ReconfigAwareScanIsNodeIdentical) {
    const GoldenTable3& want = GetParam();
    obs::TraceSink sink(obs::TraceLevel::Phase);
    pipeline::ModuloOptions options;
    options.include_reconfigs = true;
    options.timeout_ms = 60000;
    options.solver.trace = &sink;
    const pipeline::ModuloResult r =
        pipeline::modulo_schedule(kernel_by_name(want.kernel), options);
    ASSERT_EQ(r.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(r.stats.nodes, want.nodes);
    EXPECT_EQ(r.stats.failures, want.failures);
    EXPECT_EQ(r.stats.solutions, want.solutions);
    EXPECT_EQ(r.initial_ii, want.initial_ii);
    EXPECT_EQ(r.reconfigs, want.reconfigs);
    EXPECT_EQ(r.actual_ii, want.actual_ii);
    EXPECT_EQ(r.residue, want.residue);
    EXPECT_EQ(r.stage, want.stage);

    // Exactly one candidate II is lowered, emitted and searched.
    std::ostringstream os;
    sink.write_jsonl(os);
    const obs::ParsedTrace trace = obs::parse_trace(os.str());
    ASSERT_EQ(trace.tracks.size(), 1u);
    std::vector<obs::ParsedEvent> ends;
    for (const obs::ParsedEvent& e : trace.tracks[0].events) {
        if (e.kind == 'E' && e.name == "try_ii") ends.push_back(e);
    }
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(ends[0].args.at("vars"), want.emit_vars);
    EXPECT_EQ(ends[0].args.at("props"), want.emit_props);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Table3Parity,
    ::testing::Values(
        GoldenTable3{"qrd", 168, 85, 1, 18, 4, 22, 278, 251,
                     {-1, -1, -1, -1, -1, -1, -1, -1, 8,  -1, 8,  -1, 0,  -1, 1,  -1, 2,
                      -1, 6,  -1, 6,  -1, 3,  -1, 3,  -1, 3,  -1, 0,  -1, 0,  -1, 3,  -1,
                      3,  -1, 4,  -1, 0,  -1, 0,  -1, 4,  -1, 4,  -1, 5,  -1, 1,  -1, 1,
                      -1, 8,  -1, 8,  -1, 6,  -1, 7,  -1, 10, -1, 6,  -1, 6,  -1, 4,  -1,
                      4,  -1, 11, -1, 1,  -1, 1,  -1, 5,  -1, 5,  -1, 8,  -1, 2,  -1, 2,
                      -1, 9,  -1, 9,  -1, 9,  -1, 12, -1, 13, -1, 7,  -1, 7,  -1, 5,  -1,
                      5,  -1, 14, -1, 2,  -1, 2,  -1, 9,  -1, 9,  -1, 16, -1, 15, -1, 17,
                      -1, 7,  -1, 7,  -1},
                     {-1, -1, -1, -1, -1, -1, -1, -1, 0,  -1, 0,  -1, 1,  -1, 2,  -1, 2,
                      -1, 2,  -1, 2,  -1, 3,  -1, 3,  -1, 4,  -1, 5,  -1, 5,  -1, 3,  -1,
                      3,  -1, 4,  -1, 5,  -1, 5,  -1, 3,  -1, 3,  -1, 4,  -1, 5,  -1, 5,
                      -1, 5,  -1, 5,  -1, 6,  -1, 7,  -1, 6,  -1, 7,  -1, 7,  -1, 8,  -1,
                      8,  -1, 8,  -1, 9,  -1, 9,  -1, 8,  -1, 8,  -1, 9,  -1, 10, -1, 10,
                      -1, 9,  -1, 9,  -1, 10, -1, 11, -1, 10, -1, 11, -1, 11, -1, 12, -1,
                      12, -1, 12, -1, 13, -1, 13, -1, 13, -1, 13, -1, 13, -1, 14, -1, 14,
                      -1, 15, -1, 15, -1}},
        GoldenTable3{"arf", 104, 53, 1, 7, 2, 9, 158, 123,
                     {-1, -1, 3,  -1, -1, -1, 3,  -1, -1, -1, 3,  -1, -1, -1, 3,  -1, -1,
                      -1, 4,  -1, -1, -1, 4,  -1, -1, -1, 4,  -1, -1, -1, 4,  -1, 0,  -1,
                      0,  -1, 0,  -1, 0,  -1, -1, 5,  -1, -1, 5,  -1, -1, 5,  -1, -1, 5,
                      -1, -1, 1,  -1, -1, 1,  -1, -1, 1,  -1, -1, 1,  -1, 6,  -1, 6,  -1,
                      -1, 2,  -1, -1, 2,  -1, -1, 6,  -1, -1, 6,  -1, -1, 2,  -1, -1, 2,
                      -1},
                     {-1, -1, 0,  -1, -1, -1, 0,  -1, -1, -1, 0,  -1, -1, -1, 0,  -1, -1,
                      -1, 0,  -1, -1, -1, 0,  -1, -1, -1, 0,  -1, -1, -1, 0,  -1, 2,  -1,
                      2,  -1, 2,  -1, 2,  -1, -1, 3,  -1, -1, 3,  -1, -1, 3,  -1, -1, 3,
                      -1, -1, 5,  -1, -1, 5,  -1, -1, 5,  -1, -1, 5,  -1, 6,  -1, 6,  -1,
                      -1, 8,  -1, -1, 8,  -1, -1, 9,  -1, -1, 9,  -1, -1, 11, -1, -1, 11,
                      -1}}));

}  // namespace
}  // namespace revec::sched
