// model::check_schedule enforces the model's own knobs: the slot budget
// (Table 1's "#slots available", not the whole memory) and, on slot-only
// models, the pinned start of every node. Both go through the same options
// a caller solves with, so sched::verify_schedule sees them too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "revec/apps/matmul.hpp"
#include "revec/heur/list.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"

namespace revec::model {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

bool mentions(const std::vector<std::string>& problems, const std::string& what) {
    for (const std::string& p : problems) {
        if (p.find(what) != std::string::npos) return true;
    }
    return false;
}

TEST(CheckSchedule, RejectsSlotsPastTheModelBudget) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    sched::ScheduleOptions so;
    so.num_slots = 12;
    so.heuristic_only = true;
    const sched::Schedule s = sched::schedule_kernel(g, so);
    ASSERT_TRUE(s.feasible());
    const KernelModel km = sched::lower_for_schedule(g, so);
    ASSERT_EQ(km.num_slots, 12);
    ASSERT_TRUE(check_schedule(km, s.start, s.slot, s.makespan).empty());

    // Slot 12 exists in memory but lies outside this model's budget.
    sched::Schedule bad = s;
    bad.slot[static_cast<std::size_t>(km.vdata.front())] = 12;
    const std::vector<std::string> problems =
        check_schedule(km, bad.start, bad.slot, bad.makespan);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_TRUE(mentions(problems, "slot 12 out of range")) << problems.front();
    EXPECT_TRUE(mentions(sched::verify_schedule(kSpec, g, bad, so), "slot 12 out of range"));
    // Against the whole memory the same schedule is clean.
    EXPECT_TRUE(sched::verify_schedule(kSpec, g, bad).empty());
}

TEST(CheckSchedule, RejectsStartsOffTheirPins) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    sched::ScheduleOptions so;
    so.heuristic_only = true;
    const sched::Schedule s = sched::schedule_kernel(g, so);
    ASSERT_TRUE(s.feasible());

    // A slot-only model pinned to a different feasible schedule: the
    // serialized ladder rung.
    so.fixed_starts = heur::priority_list_schedule(lower_ir(kSpec, g), heur::ladder()[1]).start;
    ASSERT_NE(so.fixed_starts, s.start);
    const KernelModel pinned = sched::lower_for_schedule(g, so);
    const std::vector<std::string> problems =
        check_schedule(pinned, s.start, s.slot, s.makespan);
    EXPECT_FALSE(problems.empty());
    EXPECT_TRUE(mentions(problems, "pinned at")) << (problems.empty() ? "" : problems.front());
    EXPECT_TRUE(mentions(sched::verify_schedule(kSpec, g, s, so), "pinned at"));

    // The schedule its own pins describe passes the pin check.
    so.fixed_starts = s.start;
    EXPECT_TRUE(check_schedule(sched::lower_for_schedule(g, so), s.start, s.slot, s.makespan)
                    .empty());
}

}  // namespace
}  // namespace revec::model
