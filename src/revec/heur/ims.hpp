// Heuristic layer, part 3: iterative modulo scheduling (IMS). For each
// candidate II from a resource lower bound upward, greedily place the
// operations against per-residue reservation tables (the modulo form of
// eqs. 2-3); the first II where every operation fits is a feasible upper
// bound for the exact per-II search in pipeline::modulo_schedule, and the
// placement itself is a valid warm-start / fallback kernel.
//
// The reservation rules read the same KernelModel the CP emitter lowers
// into its modulo model: resource tasks occupy residues [m, m+duration)
// without wrap-around, and two vector-core operations with different
// configurations never share a start residue — so any IMS placement is a
// solution of the CP model at the same II.
#pragma once

#include <vector>

#include "revec/model/kernel_model.hpp"

namespace revec::heur {

struct ImsOptions {
    /// First candidate II; pass model::modulo_ii_lower_bound for a tight scan.
    int min_ii = 1;

    /// Give up beyond this initiation interval.
    int max_ii = 512;
};

struct ImsResult {
    bool ok = false;
    int ii = 0;                ///< feasible initiation interval found
    std::vector<int> start;    ///< flat iteration-0 starts (data via eq. 4)
    std::vector<int> residue;  ///< m_i = start mod II; -1 for data nodes
    std::vector<int> stage;    ///< k_i = start div II; -1 for data nodes
};

/// Greedy iterative modulo schedule over the lowered model. Scans II upward
/// from min_ii; within one II each dependency-ready operation (slack order)
/// tries II consecutive start cycles — that window covers every residue, so
/// a miss proves the greedy placement cannot extend at this II and the next
/// II is tried. Returns ok=false only when max_ii is exhausted. Priorities
/// read m.asap/m.alap, so lower with the default horizon (critical path).
ImsResult iterative_modulo_schedule(const model::KernelModel& m, const ImsOptions& options = {});

}  // namespace revec::heur
