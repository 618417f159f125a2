// The repair half of an LNS round, pinned at the store boundary:
// freeze_for_repair really freezes (assigned on a clone of the base
// emission, which stays untouched), rejects out-of-bounds freezes instead
// of throwing, and its strict improvement bound rejects equal-makespan
// repairs. Plus complete_assignment, the portfolio's warm-start seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lns_fixtures.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/cp/store.hpp"
#include "revec/ir/passes.hpp"
#include "revec/lns/lns.hpp"
#include "revec/lns/neighbourhood.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/support/assert.hpp"

namespace revec::lns {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

testing::Incumbent matmul_incumbent() {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    return testing::ladder_incumbent(kSpec, g, heur::ladder().size() - 1);
}

TEST(Repair, FrozenStartsAreAssignedInTheEmittedStore) {
    const testing::Incumbent inc = matmul_incumbent();
    ASSERT_TRUE(inc.ok);

    // Relax a fixed neighbourhood; on a clone of the base emission every
    // other start must come out assigned to its incumbent value, the
    // makespan capped strictly below the incumbent's, and the base store
    // untouched.
    XorShift rng(17u);
    const std::vector<int> relaxed =
        select_neighbourhood(inc.km, inc.start, Selector::RandomSlice, 0.3, rng);
    std::vector<char> open(inc.start.size(), 0);
    for (const int id : relaxed) open[static_cast<std::size_t>(id)] = 1;

    cp::Store base;
    const model::VarTable vt = model::emit_cp(base, inc.km);
    std::vector<std::int64_t> base_sizes;
    for (std::size_t v = 0; v < base.num_vars(); ++v) {
        base_sizes.push_back(base.size(cp::IntVar(static_cast<std::int32_t>(v))));
    }
    cp::Store store = base.clone();
    ASSERT_TRUE(freeze_for_repair(store, vt, inc.start, relaxed, inc.makespan));
    for (int id = 0; id < inc.km.num_nodes(); ++id) {
        const auto i = static_cast<std::size_t>(id);
        if (open[i] != 0) continue;
        EXPECT_EQ(store.min(vt.start[i]), inc.start[i]) << "node " << id;
        EXPECT_EQ(store.max(vt.start[i]), inc.start[i]) << "node " << id;
    }
    EXPECT_EQ(store.max(vt.makespan), inc.makespan - 1);
    for (std::size_t v = 0; v < base.num_vars(); ++v) {
        EXPECT_EQ(base.size(cp::IntVar(static_cast<std::int32_t>(v))), base_sizes[v])
            << "var " << v;
    }
}

TEST(Repair, OutOfBoundsFreezeMarksInfeasibleInsteadOfThrowing) {
    const testing::Incumbent inc = matmul_incumbent();
    ASSERT_TRUE(inc.ok);

    // An incumbent start past the horizon cannot be assigned: the round is
    // rejected (false), nothing throws.
    std::vector<int> bad = inc.start;
    bad[static_cast<std::size_t>(inc.km.ops.front())] = inc.km.horizon + 10;
    cp::Store base;
    const model::VarTable vt = model::emit_cp(base, inc.km);
    cp::Store store = base.clone();
    bool ok = true;
    EXPECT_NO_THROW(ok = freeze_for_repair(store, vt, bad, {}, inc.makespan));
    EXPECT_FALSE(ok);
}

TEST(Repair, StrictBoundRejectsEqualMakespanRepairs) {
    const testing::Incumbent inc = matmul_incumbent();
    ASSERT_TRUE(inc.ok);

    // Freeze EVERY start at the incumbent: the only reachable makespan is
    // the incumbent's own, so the strict bound (<= makespan - 1) must make
    // the subproblem unsatisfiable — already while freezing, or in search.
    cp::Store base;
    const model::VarTable vt = model::emit_cp(base, inc.km);
    cp::Store store = base.clone();
    if (freeze_for_repair(store, vt, inc.start, {}, inc.makespan)) {
        const cp::SolveResult r = cp::solve(store, vt.phases, vt.makespan, {});
        EXPECT_EQ(r.status, cp::SolveStatus::Unsat);
    }
    // Without the cap the same freeze keeps the incumbent itself feasible.
    cp::Store loose = base.clone();
    ASSERT_TRUE(freeze_for_repair(loose, vt, inc.start, {}, inc.makespan + 1));
    const cp::SolveResult r = cp::solve(loose, vt.phases, vt.makespan, {});
    ASSERT_TRUE(r.has_solution());
    EXPECT_EQ(r.value_of(vt.makespan), inc.makespan);
}

TEST(Repair, CompleteAssignmentReproducesTheScheduleAtTheHandles) {
    const testing::Incumbent inc = matmul_incumbent();
    ASSERT_TRUE(inc.ok);

    cp::Store store;
    const model::VarTable vt = model::emit_cp(store, inc.km);
    const std::vector<int> full = complete_assignment(store.clone(), vt, inc.start, inc.slot);
    ASSERT_FALSE(full.empty());
    ASSERT_EQ(full.size(), store.num_vars());
    for (int id = 0; id < inc.km.num_nodes(); ++id) {
        const auto i = static_cast<std::size_t>(id);
        EXPECT_EQ(full[static_cast<std::size_t>(vt.start[i].index())], inc.start[i])
            << "node " << id;
    }
    for (const auto& [id, var] : vt.slot_of) {
        EXPECT_EQ(full[static_cast<std::size_t>(var.index())],
                  inc.slot[static_cast<std::size_t>(id)])
            << "slot of node " << id;
    }
    EXPECT_EQ(full[static_cast<std::size_t>(vt.makespan.index())], inc.makespan);
}

TEST(Repair, InconsistentScheduleYieldsEmptyAssignment) {
    const testing::Incumbent inc = matmul_incumbent();
    ASSERT_TRUE(inc.ok);
    std::vector<int> bad = inc.start;
    // Push one op past the horizon: assignment must fail cleanly.
    bad[static_cast<std::size_t>(inc.km.ops.front())] = inc.km.horizon + 10;
    cp::Store store;
    const model::VarTable vt = model::emit_cp(store, inc.km);
    EXPECT_TRUE(complete_assignment(store.clone(), vt, bad, inc.slot).empty());
}

}  // namespace
}  // namespace revec::lns
