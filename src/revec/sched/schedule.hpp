// The schedule result type every scheduling entry point returns: start
// cycles, memory slots, makespan, status and the solver work.
#pragma once

#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/cp/portfolio.hpp"
#include "revec/cp/search.hpp"
#include "revec/ir/graph.hpp"

namespace revec::sched {

/// A complete scheduling + memory allocation result for one kernel
/// iteration. Vectors are indexed by IR node id. The SolveWork part is the
/// solver work, merged over all portfolio workers (profile empty unless
/// SolverConfig::profile was set).
struct Schedule : cp::SolveWork {
    std::vector<int> start;  ///< start cycle per node (data nodes too)
    std::vector<int> slot;   ///< memory slot per vector data node; -1 elsewhere
    int makespan = 0;        ///< latest completion time over all nodes
    int slots_used = 0;      ///< distinct memory slots referenced
    cp::SolveStatus status = cp::SolveStatus::Unsat;

    /// model::makespan_lower_bound of the solved model (0 on the
    /// heuristic-only path, which does not read it). bound_closed: the warm
    /// seed met it, so the schedule is Optimal with no CP model emitted and
    /// no search run.
    int lower_bound = 0;
    bool bound_closed = false;

    /// Per-worker node/failure/cutoff-prune counters of the exact search,
    /// one per portfolio worker (empty when no exact search ran).
    std::vector<cp::WorkerReport> workers;

    bool feasible() const {
        return status == cp::SolveStatus::Optimal || status == cp::SolveStatus::SatTimeout ||
               status == cp::SolveStatus::HeuristicFallback;
    }
    bool proven_optimal() const { return status == cp::SolveStatus::Optimal; }
};

}  // namespace revec::sched
