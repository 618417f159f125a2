// Heuristic layer, part 1: a priority list scheduler over the lowered
// KernelModel. Greedy counterpart of the CP emitter's eqs. 1-5 plus the
// physical memory-port limits: dependency-ready operations issue cycle by
// cycle in slack order (critical-path operations first), respecting lane
// capacity, the one-configuration-per-cycle rule, the scalar and
// index/merge units, and the per-cycle vector read/write port caps. The
// result seeds the exact branch-and-bound search with an incumbent
// makespan (warm start) and is the anytime fallback when the exact solver
// runs out of time.
//
// The subsystem reads all demands (timing, lanes, configs, port traffic)
// from the shared model::KernelModel, so the heuristics and the CP emitter
// can never disagree about the problem; sched wraps the raw start vectors
// into Schedule values and re-checks them with the model's checker before
// trusting them.
#pragma once

#include <vector>

#include "revec/model/kernel_model.hpp"

namespace revec::heur {

struct ListOptions {
    /// Respect the per-cycle vector read/write port caps. Kept on even for
    /// paper-literal CP models: a stricter feasible schedule is still a
    /// valid incumbent for the relaxed model.
    bool enforce_port_limits = true;

    /// Issue at most one vector-core operation per cycle. Weakens the
    /// simultaneous-access coupling (eq. 8 groups become singletons), so
    /// the greedy slot allocator retries under this mode when the packed
    /// schedule's access groups are unallocatable.
    bool serialize_vector_issue = false;

    /// Additionally give every writer an exclusive write-back cycle (at
    /// most one operation's outputs land per cycle), collapsing eq. 9
    /// groups to single writers. Last rung of the allocation retry ladder.
    bool spread_writes = false;

    /// Optional externally supplied priority key, one entry per node id
    /// (ops are issued in ascending key order once ready). Empty = the
    /// default slack priorities. The adaptation layer (adapt.hpp) passes a
    /// donor schedule's start times here so the greedy issue order tracks
    /// the donor's shape; slack/ALAP/id order break ties.
    std::vector<int> priority_hint;
};

struct ListResult {
    std::vector<int> start;  ///< per node id (data nodes follow eq. 4)
    int makespan = 0;        ///< max over nodes of start + latency
};

/// Greedy priority list schedule over the lowered model. Always succeeds
/// (the schedule stretches in time instead of failing); the result
/// satisfies eqs. 1-5 and the port limits by construction. Priorities read
/// m.asap/m.alap, so lower with the default horizon (critical path).
ListResult priority_list_schedule(const model::KernelModel& m, const ListOptions& options = {});

/// The allocation retry ladder: rung 0 is the packed schedule, later rungs
/// progressively relax the simultaneous-access coupling (serialize vector
/// issue, then additionally spread write-backs) so the greedy slot
/// allocator faces easier access groups. sched walks it front to back for
/// the warm start; ladder().back() is the most conservative rung — longest
/// makespan, easiest allocation.
const std::vector<ListOptions>& ladder();

}  // namespace revec::heur
