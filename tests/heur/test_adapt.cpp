// Adaptation safety (DESIGN §5k): across seeded edit scripts — latency
// edits, geometry-knob moves, sabotaged donor start vectors — the output
// of heur::adapt_schedule is either verifier-clean against the edited
// model or rejected with a reason; a rejected result must never be served
// or seeded, and an incompatible delta early-outs before any repair work.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/heur/adapt.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/model/fingerprint.hpp"
#include "revec/sched/model.hpp"

namespace revec::heur {
namespace {

model::KernelModel lowered(const ir::Graph& g) {
    return sched::lower_for_schedule(g, sched::ScheduleOptions{});
}

/// A verified donor schedule of `m` via the public heuristic-only solve.
sched::Schedule donor_for(const model::KernelModel& m) {
    sched::ModelSolveOptions mo;
    mo.heuristic_only = true;
    const sched::Schedule s = sched::schedule_model(m, mo);
    EXPECT_TRUE(s.feasible());
    EXPECT_TRUE(model::check_schedule(m, s.start, s.slot, s.makespan).empty());
    return s;
}

/// Change a node's latency; derive() carries it to the edges, ASAP/ALAP
/// and the critical path.
void set_latency(model::KernelModel& m, int id, int latency) {
    m.nodes[static_cast<std::size_t>(id)].latency = latency;
    model::derive(m);
}

/// One seeded edit script: perturb 1-2 op latencies (downward edits keep
/// the stale horizon valid, upward ones may legitimately push the repair
/// past it — both are legal inputs) and occasionally a geometry knob.
model::KernelModel edited_variant(const model::KernelModel& base, std::uint32_t seed) {
    std::mt19937 rng(seed);
    model::KernelModel m = base;
    const int edits = 1 + static_cast<int>(rng() % 2u);
    for (int i = 0; i < edits; ++i) {
        const int op = m.ops[rng() % m.ops.size()];
        const int lat = m.node(op).latency;
        const int next = (rng() % 2u == 0) ? lat + 1 : std::max(1, lat - 1);
        set_latency(m, op, next);
    }
    if (rng() % 4u == 0 && m.num_slots > 1) m.num_slots -= 1;
    return m;
}

TEST(AdaptSchedule, SeededEditScriptsAreCleanOrRejected) {
    const model::KernelModel matmul =
        lowered(ir::merge_pipeline_ops(apps::build_matmul()));
    const sched::Schedule donor = donor_for(matmul);

    int adapted_ok = 0;
    for (std::uint32_t seed = 0; seed < 25; ++seed) {
        const model::KernelModel variant = edited_variant(matmul, seed);
        const model::ModelDelta delta = model::diff(matmul, variant);
        const AdaptResult out = adapt_schedule(donor.start, delta, variant);
        if (out.ok) {
            ++adapted_ok;
            EXPECT_TRUE(
                model::check_schedule(variant, out.start, out.slot, out.makespan)
                    .empty())
                << "seed " << seed << ": adapted schedule failed verification";
            EXPECT_EQ(out.start.size(),
                      static_cast<std::size_t>(variant.num_nodes()));
        } else {
            EXPECT_FALSE(out.reason.empty()) << "seed " << seed;
            EXPECT_TRUE(out.start.empty()) << "seed " << seed;
        }
    }
    // The scripts are gentle (1-2 latency nudges): most must adapt, or the
    // reuse pipeline would never fire in practice.
    EXPECT_GE(adapted_ok, 15);
}

TEST(AdaptSchedule, SabotagedDonorStartsStaySafe) {
    // Garbage donor start vectors only degrade the priority order — the
    // list scheduler re-enforces every constraint, so the result is still
    // verifier-clean (or honestly rejected), never a served lie.
    const model::KernelModel matmul =
        lowered(ir::merge_pipeline_ops(apps::build_matmul()));
    const model::ModelDelta delta = model::diff(matmul, matmul);
    ASSERT_TRUE(delta.compatible());

    for (std::uint32_t seed = 100; seed < 125; ++seed) {
        std::mt19937 rng(seed);
        std::vector<int> garbage(static_cast<std::size_t>(matmul.num_nodes()));
        for (int& v : garbage) {
            v = static_cast<int>(rng() % (3u * static_cast<unsigned>(matmul.horizon)));
        }
        const AdaptResult out = adapt_schedule(garbage, delta, matmul);
        if (out.ok) {
            EXPECT_TRUE(
                model::check_schedule(matmul, out.start, out.slot, out.makespan)
                    .empty())
                << "seed " << seed;
        } else {
            EXPECT_FALSE(out.reason.empty());
        }
    }
}

TEST(AdaptSchedule, IncompatibleDeltaEarlyOuts) {
    const model::KernelModel matmul =
        lowered(ir::merge_pipeline_ops(apps::build_matmul()));
    const sched::Schedule donor = donor_for(matmul);

    model::KernelModel flipped = matmul;
    flipped.memory_allocation = false;
    const model::ModelDelta delta = model::diff(matmul, flipped);
    ASSERT_FALSE(delta.compatible());

    const AdaptResult out = adapt_schedule(donor.start, delta, flipped);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.reason, "incompatible delta");
    EXPECT_TRUE(out.start.empty());
    EXPECT_TRUE(out.slot.empty());
}

TEST(AdaptSchedule, MismatchedDeltaIsRejected) {
    // A delta describing some other model must not silently adapt.
    const model::KernelModel matmul =
        lowered(ir::merge_pipeline_ops(apps::build_matmul()));
    const model::KernelModel qrd = lowered(ir::merge_pipeline_ops(apps::build_qrd()));
    const sched::Schedule donor = donor_for(matmul);
    const model::ModelDelta self = model::diff(matmul, matmul);
    const AdaptResult out = adapt_schedule(donor.start, self, qrd);
    EXPECT_FALSE(out.ok);
}

TEST(AdaptSchedule, QrdDonorAdaptsAcrossOneOpEdit) {
    // The bench's QRD shape, in miniature: one latency edit, donor from
    // the unedited model, adapted schedule verifier-clean on the edited
    // one.
    const model::KernelModel qrd = lowered(ir::merge_pipeline_ops(apps::build_qrd()));
    const sched::Schedule donor = donor_for(qrd);

    model::KernelModel variant = qrd;
    const int op = variant.ops[variant.ops.size() / 2];
    set_latency(variant, op, std::max(1, variant.node(op).latency - 1));

    const model::ModelDelta delta = model::diff(qrd, variant);
    ASSERT_TRUE(delta.compatible());
    const AdaptResult out = adapt_schedule(donor.start, delta, variant);
    ASSERT_TRUE(out.ok) << out.reason;
    EXPECT_TRUE(
        model::check_schedule(variant, out.start, out.slot, out.makespan).empty());
}

}  // namespace
}  // namespace revec::heur
