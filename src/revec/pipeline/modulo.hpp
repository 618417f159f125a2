// Modulo scheduling as a CSP (paper §4.3, Table 3). Iterations start every
// II cycles; operation i gets s_i = II * k_i + m_i with the residue m_i
// carrying all resource constraints. Two model variants, as in the paper:
//
//  * excluding reconfigurations: find the smallest feasible II, then count
//    the configuration changes around the steady-state kernel in a
//    post-processing step; the actual II is II + changes * reconfig_cycles.
//  * including reconfigurations: minimize II + R jointly, where R (the
//    number of configuration changes around the kernel) is part of the
//    constraint model via per-residue configuration variables.
#pragma once

#include <cstdint>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/cp/portfolio.hpp"
#include "revec/cp/search.hpp"
#include "revec/ir/graph.hpp"

namespace revec::pipeline {

struct ModuloOptions {
    arch::ArchSpec spec = arch::ArchSpec::eit();
    /// Optimize reconfigurations inside the model (Table 3 right half).
    bool include_reconfigs = false;
    /// Wall-clock budget; -1 = unlimited. The paper used a 10-minute cap.
    std::int64_t timeout_ms = -1;
    /// Portfolio search for each per-II solve (threads = 1 is exactly
    /// cp::solve); see cp/portfolio.hpp.
    cp::SolverConfig solver;

    /// Warm start from heur::iterative_modulo_schedule: the greedy IMS
    /// placement gives a feasible II upper bound, so the exact per-II scan
    /// only runs below it (and, when optimizing reconfigurations, starts
    /// with the IMS kernel as incumbent). On timeout the IMS kernel is
    /// returned with status HeuristicFallback instead of Timeout.
    bool warm_start = true;

    /// Skip the exact per-II solves and return the IMS kernel directly
    /// (status HeuristicFallback, or Optimal when its II matches the
    /// resource lower bound).
    bool heuristic_only = false;
};

/// The SolveWork part accumulates the solver work of every per-II attempt
/// of the scan (the scan is the unit of work the caller pays for, not one
/// solve); its profile is empty unless SolverConfig::profile was set.
struct ModuloResult : cp::SolveWork {
    int ii_lower_bound = 0;   ///< resource-based minimum II
    int initial_ii = 0;       ///< feasible II of the core model
    int reconfigs = 0;        ///< configuration changes around the kernel
    int actual_ii = 0;        ///< initial_ii + reconfigs * reconfig_cycles
    double throughput = 0.0;  ///< 1 / actual_ii
    double time_ms = 0.0;
    cp::SolveStatus status = cp::SolveStatus::Unsat;

    /// Per-node steady-state schedule (op nodes; data nodes follow eq. 4):
    /// start of iteration-0 copy is stage * initial_ii + residue.
    std::vector<int> residue;  ///< m_i; -1 for data nodes
    std::vector<int> stage;    ///< k_i; -1 for data nodes

    bool feasible() const {
        return status == cp::SolveStatus::Optimal || status == cp::SolveStatus::SatTimeout ||
               status == cp::SolveStatus::HeuristicFallback;
    }
};

/// Resource-based lower bound on II (lane demand per configuration, the
/// scalar unit, and the index/merge unit).
int ii_lower_bound(const arch::ArchSpec& spec, const ir::Graph& g);

/// Count configuration changes around a steady-state kernel given each
/// vector-core op's residue. Empty residues keep the previous
/// configuration loaded; the count is cyclic (kernel repeats every II).
int count_kernel_reconfigs(const arch::ArchSpec& spec, const ir::Graph& g,
                           const std::vector<int>& residue, int ii);

/// Solve the modulo scheduling problem, scanning II upward from the
/// resource lower bound; the scan gives up beyond II 512.
ModuloResult modulo_schedule(const ir::Graph& g, const ModuloOptions& options = {});

}  // namespace revec::pipeline
