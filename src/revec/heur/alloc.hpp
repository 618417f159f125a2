// Heuristic layer, part 2: a greedy vector-memory slot allocator for a
// fixed schedule. Walks the shared model::KernelModel (lifetime endpoints
// for eq. 10/11 slot reuse, the access-group structure of eqs. 7-9 in the
// generalized completion-time form the CP emitter posts) and uses
// MemoryGeometry::access_conflict for the page/line descriptor rule.
// First-fit in slot order with bounded chronological backtracking — greedy
// placements almost always stick, and the budget keeps the worst case
// cheap enough for an anytime fallback path.
#pragma once

#include <cstdint>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/ir/graph.hpp"
#include "revec/model/kernel_model.hpp"

namespace revec::heur {

struct AllocOptions {
    /// Memory slots available; must be positive when the graph has vector
    /// data.
    int num_slots = 0;

    /// Lifetime semantics; must match the scheduling options (see
    /// ScheduleOptions::lifetime_includes_last_read).
    bool lifetime_includes_last_read = true;

    /// Search budget: total slot trials (greedy probes + backtracking)
    /// before the allocator gives up. A trial scans at most the items
    /// placed so far, yet an exhausted default budget costs about a second
    /// per failed ladder rung (70-op random kernels with matrix ops, 4-vCPU
    /// host); kernels that thrash the chronological backtracking need a
    /// few million trials before the first-fit order untangles.
    std::int64_t max_nodes = 8000000;
};

struct AllocResult {
    bool ok = false;
    std::vector<int> slot;  ///< per node id; -1 for non-vector-data nodes
    int slots_used = 0;     ///< distinct slots referenced
};

/// Assign memory slots to every vector data node of `m` under the start
/// times in `start` (one entry per node). Slot count and lifetime
/// semantics come from the model (m.num_slots, m.lifetime_includes_last_read);
/// `max_nodes` is the backtracking budget. Returns ok=false when the access
/// geometry cannot be satisfied within the budget — callers retry with a
/// less packed schedule (see ListOptions) or fall back to the exact
/// slot-only CP solve.
AllocResult allocate_slots(const model::KernelModel& m, const std::vector<int>& start,
                           std::int64_t max_nodes = 8000000);

/// Convenience wrapper: lower `g` with the options' slot count and
/// lifetime semantics, then allocate.
AllocResult allocate_slots(const arch::ArchSpec& spec, const ir::Graph& g,
                           const std::vector<int>& start, const AllocOptions& options);

}  // namespace revec::heur
