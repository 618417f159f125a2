// Schedule result types and the greedy list scheduler used to obtain an
// initial makespan upper bound (and the single-iteration instruction
// ordering consumed by the overlapped-execution pipeliner).
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

    /// Per-worker node/failure/cutoff-prune counters of the exact search,
    /// one per portfolio worker (empty when no exact search ran).
    std::vector<cp::WorkerReport> workers;

    bool feasible() const {
        return status == cp::SolveStatus::Optimal || status == cp::SolveStatus::SatTimeout ||
               status == cp::SolveStatus::HeuristicFallback;
    }
    bool proven_optimal() const { return status == cp::SolveStatus::Optimal; }
};

/// Greedy resource-constrained list schedule (no memory allocation):
/// dependency-ready operations issue in priority order each cycle,
/// respecting lane capacity, the one-configuration-per-cycle rule, and the
/// scalar / index-merge units. Used as the branch-and-bound upper bound and
/// as a baseline. Returns start times per node and the makespan.
struct ListScheduleResult {
    std::vector<int> start;
    int makespan = 0;
};

ListScheduleResult list_schedule(const arch::ArchSpec& spec, const ir::Graph& g);

}  // namespace revec::sched
