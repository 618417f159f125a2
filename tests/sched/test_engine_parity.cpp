// Search-tree golden suite for the propagation engine at the application
// level: scheduling the paper kernels (matmul from Listing 1 / Table 1,
// QRD §4.1, ARF) and the modulo pipeliner must explore exactly the tree
// recorded below — same node, failure and solution counts, same optimum —
// and return verify-clean schedules. The counts were recorded while the
// original wake-on-any-change, single-FIFO, full-snapshot engine still
// existed and a differential test proved it explored the identical trees.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/ir/passes.hpp"
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
    ScheduleOptions options;
    options.timeout_ms = 60000;
    expect_golden(kernel_by_name(GetParam().kernel), options, GetParam());
}

// Warm-started: the heuristic incumbent prunes these trees heavily.
INSTANTIATE_TEST_SUITE_P(Kernels, EngineParity,
                         ::testing::Values(GoldenProof{"matmul", 25168, 12585, 0, 11},
                                           GoldenProof{"qrd", 2, 2, 0, 142},
                                           GoldenProof{"arf", 2, 2, 0, 57}));

TEST(EngineParity, ColdSearchIsNodeIdenticalToo) {
    // Without the heuristic warm start the exact search runs the full tree.
    ScheduleOptions options;
    options.timeout_ms = 60000;
    options.warm_start = false;
    expect_golden(kernel_by_name("matmul"), options, {"matmul", 25208, 12605, 1, 11});
}

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

}  // namespace
}  // namespace revec::sched
