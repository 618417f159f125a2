#include "revec/heur/adapt.hpp"

#include <algorithm>

#include "revec/heur/alloc.hpp"
#include "revec/heur/list.hpp"
#include "revec/model/check.hpp"

namespace revec::heur {

AdaptResult adapt_schedule(const std::vector<int>& donor_start,
                           const model::ModelDelta& delta, const model::KernelModel& m) {
    AdaptResult out;
    if (!delta.compatible()) {
        out.reason = "incompatible delta";
        return out;
    }

    const int n = m.num_nodes();
    if (n != delta.node_count_b) {
        out.reason = "delta does not describe this model";
        return out;
    }

    // The donor's start times become the issue-order key: mapped nodes keep
    // the donor's relative order (including edited nodes — the scheduler
    // re-places them under the new timings anyway), nodes the donor never
    // saw slot in by their ASAP. Values only order, so mixing the two time
    // bases is safe; any garbage in a sabotaged donor degrades the order,
    // never feasibility.
    const int mapped = std::min(static_cast<int>(donor_start.size()), n);
    std::vector<int> hint(static_cast<std::size_t>(n), 0);
    for (int id = 0; id < n; ++id) {
        const auto i = static_cast<std::size_t>(id);
        hint[i] = id < mapped ? donor_start[i] : m.asap[i];
    }

    // Same contract as sched's heuristic ladder: every rung keeps the port
    // limits by construction, every rung's schedule is re-checked against
    // the model, and the first clean rung wins.
    for (const ListOptions& base : ladder()) {
        ListOptions rung = base;
        rung.priority_hint = hint;
        const ListResult list = priority_list_schedule(m, rung);
        std::vector<int> slot(static_cast<std::size_t>(n), -1);
        int slots_used = 0;
        if (m.memory_allocation) {
            const AllocResult alloc = allocate_slots(m, list.start);
            if (!alloc.ok) continue;
            slot = alloc.slot;
            slots_used = alloc.slots_used;
        }
        if (!model::check_schedule(m, list.start, slot, list.makespan).empty()) {
            continue;
        }
        out.ok = true;
        out.start = list.start;
        out.slot = std::move(slot);
        out.makespan = list.makespan;
        out.slots_used = slots_used;
        return out;
    }
    out.reason = "no ladder rung produced a verifier-clean schedule";
    return out;
}

}  // namespace revec::heur
