// Shared fixture for the LNS test suites: build a *conservative* verified
// incumbent — a rung of the heuristic ladder plus the greedy slot
// allocator — over a model whose horizon covers it, so LNS rounds have
// real improvement room (the last rung serializes vector issue and spreads
// write-backs, far from optimal on purpose).
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/heur/alloc.hpp"
#include "revec/heur/list.hpp"
#include "revec/ir/graph.hpp"
#include "revec/model/check.hpp"
#include "revec/model/kernel_model.hpp"

namespace revec::lns::testing {

struct Incumbent {
    model::KernelModel km;
    std::vector<int> start;
    std::vector<int> slot;
    int makespan = 0;
    bool ok = false;
};

/// Schedule `g` with ladder rung `rung` (0 = packed .. back = most
/// conservative), allocate slots, and re-lower with a horizon that covers
/// the result. `ok` is false when the rung's schedule does not allocate or
/// does not verify — callers ASSERT on it.
inline Incumbent ladder_incumbent(const arch::ArchSpec& spec, const ir::Graph& g,
                                  std::size_t rung) {
    Incumbent inc;
    const model::KernelModel km0 = model::lower_ir(spec, g);
    const heur::ListResult list =
        heur::priority_list_schedule(km0, heur::ladder().at(rung));
    inc.km = model::lower_ir(spec, g, {}, list.makespan + 2);
    const heur::AllocResult alloc = heur::allocate_slots(inc.km, list.start);
    if (!alloc.ok) return inc;
    inc.start = list.start;
    inc.slot = alloc.slot;
    inc.makespan = list.makespan;
    inc.ok = model::check_schedule(inc.km, inc.start, inc.slot, inc.makespan).empty();
    return inc;
}

}  // namespace revec::lns::testing
