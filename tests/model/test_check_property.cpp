// Property: the KernelModel checker (behind the sched::verify_schedule
// shim) agrees with the frozen pre-refactor verifier message for message —
// on clean heuristic schedules, on exact schedules, and on deliberately
// sabotaged ones — across the 25-seed random-kernel corpus.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "legacy_ref.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"

namespace revec::model {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

/// Both verifiers, same options; the reports must be identical as ordered
/// string lists (the new checker is a transliteration, not a rewrite).
void expect_same_reports(const ir::Graph& g, const sched::Schedule& s,
                         const LowerOptions& opts, const char* what, unsigned seed) {
    const std::vector<std::string> now = sched::verify_schedule(kSpec, g, s, opts);
    const std::vector<std::string> before = legacy::verify_schedule(kSpec, g, s, opts);
    EXPECT_EQ(now, before) << what << " seed " << seed;
}

class CheckerAgreesWithLegacy : public ::testing::TestWithParam<unsigned> {};

TEST_P(CheckerAgreesWithLegacy, OnHeuristicAndSabotagedSchedules) {
    const unsigned seed = GetParam();
    apps::RandomKernelOptions kopts;
    kopts.seed = seed;
    kopts.num_ops = 20 + static_cast<int>(seed % 5) * 5;
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));

    sched::ScheduleOptions heur_opts;
    heur_opts.heuristic_only = true;
    const sched::Schedule h = sched::schedule_kernel(g, heur_opts);
    ASSERT_TRUE(h.feasible()) << "heuristic seed " << seed;

    // A schedule the heuristic ladder accepted is clean under both.
    EXPECT_TRUE(sched::verify_schedule(kSpec, g, h).empty()) << "seed " << seed;
    expect_same_reports(g, h, {}, "clean", seed);

    // Option variants exercise every checker family toggle.
    LowerOptions no_mem;
    no_mem.memory_allocation = false;
    expect_same_reports(g, h, no_mem, "no_mem", seed);
    LowerOptions no_ports;
    no_ports.enforce_port_limits = false;
    expect_same_reports(g, h, no_ports, "no_ports", seed);
    LowerOptions paper_lifetimes;
    paper_lifetimes.lifetime_includes_last_read = false;
    expect_same_reports(g, h, paper_lifetimes, "paper_lifetimes", seed);

    // Sabotage 1: shift the first op — breaks eq. 4 data starts and/or
    // precedence, possibly resources. Both must report the same list.
    {
        sched::Schedule bad = h;
        for (const ir::Node& node : g.nodes()) {
            if (!node.is_op()) continue;
            bad.start[static_cast<std::size_t>(node.id)] += 1;
            break;
        }
        expect_same_reports(g, bad, {}, "shifted_op", seed);
    }

    // Sabotage 1b: shift the first op 10^9 cycles late, then 10^9 early.
    // The checker stores uses, not the cycles between them, so the far
    // start costs no more than a near one.
    for (const int far : {1000000000, -1000000000}) {
        sched::Schedule bad = h;
        for (const ir::Node& node : g.nodes()) {
            if (!node.is_op()) continue;
            bad.start[static_cast<std::size_t>(node.id)] += far;
            break;
        }
        expect_same_reports(g, bad, {}, far > 0 ? "far_late_op" : "far_early_op", seed);
    }

    // Sabotage 2: collapse every vector-data slot onto slot 0 — slot-reuse
    // and simultaneous-access violations galore.
    {
        sched::Schedule bad = h;
        for (const ir::Node& node : g.nodes()) {
            const auto i = static_cast<std::size_t>(node.id);
            if (bad.slot[i] >= 0) bad.slot[i] = 0;
        }
        expect_same_reports(g, bad, {}, "slot_collapse", seed);
    }

    // Sabotage 3: lie about the makespan.
    {
        sched::Schedule bad = h;
        bad.makespan += 3;
        expect_same_reports(g, bad, {}, "wrong_makespan", seed);
    }

    // Sabotage 4: out-of-range slot.
    {
        sched::Schedule bad = h;
        for (const ir::Node& node : g.nodes()) {
            const auto i = static_cast<std::size_t>(node.id);
            if (bad.slot[i] >= 0) {
                bad.slot[i] = kSpec.memory.slots() + 5;
                break;
            }
        }
        expect_same_reports(g, bad, {}, "slot_range", seed);
    }

    // Sabotage 5: truncated vectors.
    {
        sched::Schedule bad = h;
        bad.start.pop_back();
        expect_same_reports(g, bad, {}, "short_start", seed);
    }
    {
        sched::Schedule bad = h;
        bad.slot.pop_back();
        expect_same_reports(g, bad, {}, "short_slot", seed);
    }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CheckerAgreesWithLegacy, ::testing::Range(1u, 26u));

}  // namespace
}  // namespace revec::model
