// Parameterized end-to-end sweep: every (kernel x option) combination must
// produce a schedule the independent verifier accepts, and — when memory is
// allocated — machine code whose simulation reproduces the DSL reference
// outputs exactly.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"
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

using SweepParam = std::tuple<std::string /*kernel*/, int /*slots*/, bool /*inclusive life*/>;

class ScheduleSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ScheduleSweep, VerifiedAndSimulated) {
    const auto [kernel, slots, inclusive] = GetParam();
    const ir::Graph g = kernel_by_name(kernel);

    ScheduleOptions opts;
    opts.spec = kSpec;
    opts.num_slots = slots;
    opts.lifetime_includes_last_read = inclusive;
    opts.timeout_ms = 30000;
    const Schedule s = schedule_kernel(g, opts);
    if (!s.feasible()) {
        // Small-memory configurations may be genuinely infeasible; that is
        // a valid outcome, but it must be UNSAT, not a crash.
        EXPECT_EQ(s.status, cp::SolveStatus::Unsat)
            << kernel << " slots=" << slots;
        return;
    }

    VerifyOptions vo;
    vo.lifetime_includes_last_read = inclusive;
    const auto problems = verify_schedule(kSpec, g, s, vo);
    ASSERT_TRUE(problems.empty()) << kernel << " slots=" << slots << ": " << problems.front();

    // The makespan never exceeds the greedy bound and never undercuts the
    // critical path.
    EXPECT_GE(s.makespan, ir::critical_path_length(kSpec, g));
    EXPECT_LE(s.makespan, list_schedule(kSpec, g).makespan);

    if (inclusive) {  // executable machine code requires inclusive lifetimes
        const codegen::MachineProgram prog = codegen::generate_code(kSpec, g, s);
        const sim::SimResult run = sim::simulate(kSpec, g, prog);
        EXPECT_TRUE(run.outputs_match)
            << kernel << " slots=" << slots << " max err " << run.max_output_error;
        EXPECT_TRUE(run.violations.empty())
            << kernel << " slots=" << slots << ": " << run.violations.front();
        EXPECT_EQ(run.cycles, s.makespan);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ScheduleSweep,
    ::testing::Combine(::testing::Values(std::string("matmul"), std::string("qrd"),
                                         std::string("arf"), std::string("detect")),
                       ::testing::Values(64, 16, 9),
                       ::testing::Values(true, false)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
        return std::get<0>(info.param) + "_slots" +
               std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "_incl" : "_excl");
    });

}  // namespace
}  // namespace revec::sched
