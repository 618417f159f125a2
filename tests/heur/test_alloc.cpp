// Greedy slot allocator: for every schedule the retry ladder produces, an
// allocation that the allocator reports ok must pass the full independent
// verifier (eqs. 6-11 geometry included), and shrinking memory must
// eventually make it fail cleanly instead of emitting a bad placement.
#include "revec/heur/alloc.hpp"

#include <gtest/gtest.h>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/heur/list.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/schedule.hpp"
#include "revec/sched/verify.hpp"

namespace revec::heur {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

model::LowerOptions with_slots(int num_slots) {
    model::LowerOptions lo;
    lo.num_slots = num_slots;
    return lo;
}

/// `g` lowered with `num_slots` memory slots.
model::KernelModel lowered(const ir::Graph& g, int num_slots) {
    return model::lower_ir(kSpec, g, with_slots(num_slots));
}

/// Try the retry ladder until some (schedule, allocation) pair succeeds;
/// returns whether one did and full-verifies it.
bool ladder_allocates(const ir::Graph& g, int num_slots) {
    const model::KernelModel km = lowered(g, num_slots);
    for (const ListOptions& rung : ladder()) {
        const ListResult list = priority_list_schedule(km, rung);
        const AllocResult alloc = allocate_slots(km, list.start);
        if (!alloc.ok) continue;

        sched::Schedule s;
        s.start = list.start;
        s.slot = alloc.slot;
        s.makespan = list.makespan;
        s.slots_used = alloc.slots_used;
        s.status = cp::SolveStatus::HeuristicFallback;
        const auto problems = sched::verify_schedule(kSpec, g, s, with_slots(num_slots));
        EXPECT_TRUE(problems.empty()) << g.name() << " slots=" << num_slots << ": "
                                      << (problems.empty() ? "" : problems.front());
        EXPECT_LE(s.slots_used, num_slots);
        return true;
    }
    return false;
}

TEST(Allocator, AppKernelsAllocateWithFullMemory) {
    const ir::Graph kernels[] = {
        ir::merge_pipeline_ops(apps::build_matmul()), ir::merge_pipeline_ops(apps::build_qrd()),
        ir::merge_pipeline_ops(apps::build_arf()), ir::merge_pipeline_ops(apps::build_detect())};
    for (const ir::Graph& g : kernels) {
        EXPECT_TRUE(ladder_allocates(g, kSpec.memory.slots())) << g.name();
    }
}

TEST(Allocator, RandomKernelsAllocateWithFullMemory) {
    for (unsigned seed = 1; seed <= 12; ++seed) {
        apps::RandomKernelOptions opts;
        opts.seed = seed;
        const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(opts));
        EXPECT_TRUE(ladder_allocates(g, kSpec.memory.slots())) << "seed " << seed;
    }
}

TEST(Allocator, TooFewSlotsFailsCleanly) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    // matmul needs far more simultaneously live data than two slots hold
    const model::KernelModel km = lowered(g, 2);
    const AllocResult alloc = allocate_slots(km, priority_list_schedule(km).start);
    EXPECT_FALSE(alloc.ok);
}

TEST(Allocator, NoVectorDataTriviallyOk) {
    ir::Graph g("scalars");
    const int in = g.add_data(ir::NodeCat::ScalarData);
    const int op = g.add_op(ir::NodeCat::ScalarOp, "s_add");
    const int out = g.add_data(ir::NodeCat::ScalarData);
    g.add_edge(in, op);
    g.add_edge(op, out);
    const model::KernelModel km = lowered(g, 0);
    const AllocResult alloc = allocate_slots(km, priority_list_schedule(km).start);
    EXPECT_TRUE(alloc.ok);
    EXPECT_EQ(alloc.slots_used, 0);
}

TEST(Allocator, ReusesSlotsAcrossDisjointLifetimes) {
    // A long chain of single-use vectors: each link dies before the next is
    // produced, so the allocator must reuse a handful of slots rather than
    // burn one per datum.
    dsl::Program p("chain");
    dsl::Vector v = p.in_vector({ir::Complex(1, 0), ir::Complex(2, 0), ir::Complex(3, 0),
                                 ir::Complex(4, 0)});
    for (int i = 0; i < 12; ++i) v = dsl::v_add(v, v);
    p.mark_output(v);
    const ir::Graph g = p.ir();

    const model::KernelModel km = lowered(g, kSpec.memory.slots());
    const AllocResult alloc = allocate_slots(km, priority_list_schedule(km).start);
    ASSERT_TRUE(alloc.ok);
    EXPECT_LT(alloc.slots_used, static_cast<int>(g.nodes_of(ir::NodeCat::VectorData).size()));
}

}  // namespace
}  // namespace revec::heur
