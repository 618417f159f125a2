// Heuristic layer, part 2: a greedy vector-memory slot allocator for a
// fixed schedule. Walks the shared model::KernelModel (lifetime endpoints
// for eq. 10/11 slot reuse, the access-group structure of eqs. 7-9 in the
// generalized completion-time form the CP emitter posts) and uses
// MemoryGeometry::access_conflict for the page/line descriptor rule.
// First-fit in slot order with bounded chronological backtracking — greedy
// placements almost always stick, and the budget keeps the worst case
// cheap enough for an anytime fallback path.
#pragma once

#include <vector>

#include "revec/model/kernel_model.hpp"

namespace revec::heur {

struct AllocResult {
    bool ok = false;
    std::vector<int> slot;  ///< per node id; -1 for non-vector-data nodes
    int slots_used = 0;     ///< distinct slots referenced
};

/// Assign memory slots to every vector data node of `m` under the start
/// times in `start` (one entry per node). Slot count and lifetime
/// semantics come from the model (m.num_slots, m.lifetime_includes_last_read).
/// Returns ok=false when the access geometry cannot be satisfied within
/// the backtracking budget (kMaxTrials in alloc.cpp) — callers retry with
/// a less packed schedule (see ListOptions) or fall back to the exact
/// slot-only CP solve.
AllocResult allocate_slots(const model::KernelModel& m, const std::vector<int>& start);

}  // namespace revec::heur
