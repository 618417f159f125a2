// Property: the CP emission and the schedule checker accept the same
// schedules. Over 60 random kernels (15-39 ops, matrix ops on and off),
// each at the default, 12 and 8 memory slots, every start and slot of a
// candidate schedule is fixed in a fresh emission (the makespan variable
// too) and the store propagated: propagation must succeed exactly when
// model::check_schedule passes. Candidates are the kernel's heuristic
// schedule (its slots folded into a tight budget) and seeded edits of it
// that stay inside the horizon: op start shifts (the op's outputs move
// with it, so eq. 4 still holds and what breaks is a precedence, a
// resource or a memory rule), slot rewrites and slot swaps. A propagator
// that prunes a valid schedule, or lets an invalid one through, fails
// here whatever order the engine drains its queue in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "revec/apps/random_kernel.hpp"
#include "revec/cp/store.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/sched/model.hpp"

namespace revec::model {
namespace {

struct Candidate {
    std::vector<int> start;
    std::vector<int> slot;
};

int makespan_of(const KernelModel& m, const std::vector<int>& start) {
    int makespan = 0;
    for (const ModelNode& n : m.nodes) {
        makespan = std::max(makespan, start[static_cast<std::size_t>(n.id)] + n.latency);
    }
    return makespan;
}

/// Does propagation accept `c` once every start, slot and the makespan of
/// an emission of `m` (cloned from `emitted`) are fixed?
bool propagation_accepts(const cp::Store& emitted, const VarTable& vars, const KernelModel& m,
                         const Candidate& c) {
    cp::Store s = emitted.clone();
    bool ok = true;
    for (const ModelNode& n : m.nodes) {
        const auto i = static_cast<std::size_t>(n.id);
        ok = ok && s.assign(vars.start[i], c.start[i]);
    }
    for (const auto& [d, slot] : vars.slot_of) {
        ok = ok && s.assign(slot, c.slot[static_cast<std::size_t>(d)]);
    }
    ok = ok && s.assign(vars.makespan, makespan_of(m, c.start));
    return ok && s.propagate();
}

/// Seeded edits of `base`, each one to two mutations of one kind, every
/// start kept in [0, horizon - latency] and every slot below num_slots.
std::vector<Candidate> edits_of(const KernelModel& m, const Candidate& base, unsigned seed) {
    std::mt19937 rng(seed);
    const auto pick = [&rng](const std::vector<int>& ids) {
        return ids[std::uniform_int_distribution<std::size_t>(0, ids.size() - 1)(rng)];
    };
    std::vector<int> ops;
    for (const ModelNode& n : m.nodes) {
        if (n.is_op) ops.push_back(n.id);
    }
    std::vector<Candidate> out;
    for (int round = 0; round < 12; ++round) {
        const int edits = 1 + round % 2;
        // Start shifts: one op (and its outputs) by -3..+3 cycles.
        Candidate shifted = base;
        for (int e = 0; e < edits; ++e) {
            const int op = pick(ops);
            const ModelNode& n = m.node(op);
            int lo = -shifted.start[static_cast<std::size_t>(op)];
            int hi = m.horizon - n.latency - shifted.start[static_cast<std::size_t>(op)];
            for (const int d : n.succs) {
                const ModelNode& dn = m.node(d);
                const int sd = shifted.start[static_cast<std::size_t>(d)];
                hi = std::min(hi, m.horizon - dn.latency - sd);
                lo = std::max(lo, -sd);
            }
            const int delta = std::clamp(std::uniform_int_distribution<int>(-3, 3)(rng), lo, hi);
            shifted.start[static_cast<std::size_t>(op)] += delta;
            for (const int d : n.succs) shifted.start[static_cast<std::size_t>(d)] += delta;
        }
        out.push_back(std::move(shifted));
        if (m.vdata.empty()) continue;
        // Slot rewrites: one vector datum to any slot.
        Candidate rewritten = base;
        for (int e = 0; e < edits; ++e) {
            rewritten.slot[static_cast<std::size_t>(pick(m.vdata))] =
                std::uniform_int_distribution<int>(0, m.num_slots - 1)(rng);
        }
        out.push_back(std::move(rewritten));
        // Slot swaps: two vector data trade slots.
        Candidate swapped = base;
        for (int e = 0; e < edits; ++e) {
            std::swap(swapped.slot[static_cast<std::size_t>(pick(m.vdata))],
                      swapped.slot[static_cast<std::size_t>(pick(m.vdata))]);
        }
        out.push_back(std::move(swapped));
    }
    return out;
}

TEST(EmitCheckAgreement, PropagationAcceptsExactlyWhatTheCheckerPasses) {
    int accepted = 0;
    int rejected = 0;
    std::vector<std::string> disagreements;
    for (unsigned seed = 1; seed <= 60; ++seed) {
        apps::RandomKernelOptions kopts;
        kopts.seed = seed;
        kopts.num_ops = 15 + static_cast<int>(seed * 7 % 25);
        kopts.use_matrix = seed % 2 == 0;
        const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));
        // One base schedule per kernel: the heuristic's with the whole
        // memory (a tight budget often has none). Under a tight budget its
        // slots are folded into range, which breaks some memory rules.
        sched::ScheduleOptions opts;
        sched::ModelSolveOptions heuristic_only;
        heuristic_only.heuristic_only = true;
        const sched::Schedule h =
            sched::schedule_model(sched::lower_for_schedule(g, opts), heuristic_only);
        ASSERT_TRUE(h.feasible()) << "seed " << seed;
        for (const int budget : {-1, 12, 8}) {  // -1: the whole memory
            opts.num_slots = budget;
            const KernelModel lowered = sched::lower_for_schedule(g, opts);
            // Room past the heuristic makespan, so a late shift stays inside.
            const KernelModel m =
                with_horizon(lowered, std::max(lowered.horizon, h.makespan + 3));
            cp::Store emitted;
            const VarTable vars = emit_cp(emitted, m);
            ASSERT_FALSE(vars.infeasible);

            Candidate base{h.start, h.slot};
            for (const int d : m.vdata) base.slot[static_cast<std::size_t>(d)] %= m.num_slots;
            std::vector<Candidate> candidates = edits_of(m, base, seed);
            candidates.push_back(std::move(base));
            for (std::size_t k = 0; k < candidates.size(); ++k) {
                const Candidate& c = candidates[k];
                const std::vector<std::string> problems =
                    check_schedule(m, c.start, c.slot, makespan_of(m, c.start));
                const bool propagated = propagation_accepts(emitted, vars, m, c);
                (problems.empty() ? accepted : rejected) += 1;
                if (propagated != problems.empty()) {
                    disagreements.push_back(
                        "seed " + std::to_string(seed) + " budget " + std::to_string(budget) +
                        " candidate " + std::to_string(k) + ": propagation " +
                        (propagated ? "accepts" : "rejects") +
                        (problems.empty() ? ", checker passes"
                                          : ", checker: " + problems.front()));
                }
            }
        }
    }
    EXPECT_TRUE(disagreements.empty())
        << disagreements.size() << " disagreements, first: " << disagreements.front();
    // Both verdicts are exercised.
    EXPECT_GE(accepted, 500);
    EXPECT_GE(rejected, 1000);
}

}  // namespace
}  // namespace revec::model
