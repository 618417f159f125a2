#include "revec/heur/alloc.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "revec/support/assert.hpp"

namespace revec::heur {

namespace {

/// Search budget: total slot trials (greedy probes + backtracking) before
/// the allocator gives up. A trial scans at most the items placed so far,
/// yet an exhausted budget costs about a second per failed ladder rung
/// (70-op random kernels with matrix ops, 4-vCPU host); kernels that
/// thrash the chronological backtracking need a few million trials before
/// the first-fit order untangles.
constexpr std::int64_t kMaxTrials = 8000000;

/// One vector datum to place: its occupied interval [begin, end) (eq. 10,
/// with the model's executable-lifetime extensions) and the ids of the
/// simultaneous-access groups it belongs to (eqs. 7-9).
struct Item {
    int node = -1;
    int begin = 0;
    int end = 0;  ///< begin + lifetime; empty interval when equal
    std::vector<int> groups;
};

}  // namespace

AllocResult allocate_slots(const model::KernelModel& m, const std::vector<int>& start) {
    REVEC_EXPECTS(start.size() == static_cast<std::size_t>(m.num_nodes()));
    AllocResult result;
    result.slot.assign(static_cast<std::size_t>(m.num_nodes()), -1);

    const std::vector<int>& vdata = m.vdata;
    if (vdata.empty()) {
        result.ok = true;
        return result;
    }
    if (m.num_slots <= 0) return result;

    const auto s = [&](int id) { return start[static_cast<std::size_t>(id)]; };
    int makespan = 0;
    for (const model::ModelNode& node : m.nodes) {
        makespan = std::max(makespan, s(node.id) + node.latency);
    }

    // Access groups, exactly as the model's checker forms them: the
    // vector-data inputs of all vector-core ops issued in one cycle (reads)
    // and all vector data landing in one cycle (writes). Within a group,
    // no two slots may be in access conflict.
    std::map<int, int> read_group_at;             // cycle -> group id
    std::map<int, int> write_group_at;            // cycle -> group id
    std::vector<std::vector<int>> group_members;  // group id -> vdata node ids
    const auto group_for = [&](std::map<int, int>& at, int cycle) {
        const auto [it, inserted] = at.emplace(cycle, static_cast<int>(group_members.size()));
        if (inserted) group_members.emplace_back();
        return it->second;
    };
    std::vector<std::vector<int>> groups_of(static_cast<std::size_t>(m.num_nodes()));
    const auto join = [&](int group, int d) {
        group_members[static_cast<std::size_t>(group)].push_back(d);
        groups_of[static_cast<std::size_t>(d)].push_back(group);
    };
    for (const model::ModelNode& node : m.nodes) {
        if (node.is_op && node.lanes > 0) {
            for (const int p : node.vector_inputs) {
                join(group_for(read_group_at, s(node.id)), p);
            }
        }
        if (node.is_vector_data && !node.preds.empty()) {
            join(group_for(write_group_at, s(node.id)), node.id);
        }
    }

    // Occupied intervals per datum (the model's lifetime endpoints).
    std::vector<Item> items;
    items.reserve(vdata.size());
    for (const int d : vdata) {
        const model::ModelNode& dn = m.node(d);
        int last = s(d);
        for (const int succ : dn.succs) last = std::max(last, s(succ));
        if (dn.persists) last = std::max(last, makespan);
        Item item;
        item.node = d;
        item.begin = s(d);
        item.end = last + dn.lifetime_extra;
        item.groups = groups_of[static_cast<std::size_t>(d)];
        std::sort(item.groups.begin(), item.groups.end());
        items.push_back(item);
    }

    // Chronological placement order: start time, then longer lifetimes
    // first (they are the hardest to fit), then node id for determinism.
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        if (a.begin != b.begin) return a.begin < b.begin;
        const int la = a.end - a.begin;
        const int lb = b.end - b.begin;
        if (la != lb) return la > lb;
        return a.node < b.node;
    });

    const arch::MemoryGeometry& geom = m.geometry;
    const int num_slots = std::min(m.num_slots, geom.slots());
    std::vector<int> placed(items.size(), -1);  // chosen slot per item index

    const auto shares_group = [](const Item& a, const Item& b) {
        auto ia = a.groups.begin();
        auto ib = b.groups.begin();
        while (ia != a.groups.end() && ib != b.groups.end()) {
            if (*ia == *ib) return true;
            (*ia < *ib) ? ++ia : ++ib;
        }
        return false;
    };

    const auto feasible = [&](std::size_t k, int slot) {
        const Item& d = items[k];
        for (std::size_t j = 0; j < k; ++j) {
            const Item& e = items[j];
            const int es = placed[j];
            if (es == slot) {
                // eq. 11: no two live data in one slot (empty intervals
                // occupy nothing), and never two distinct data of one
                // access group in one slot.
                const bool overlap = d.begin < e.end && e.begin < d.end &&
                                     d.end > d.begin && e.end > e.begin;
                if (overlap) return false;
                if (shares_group(d, e)) return false;
            } else if (geom.access_conflict(es, slot)) {
                // eqs. 7-9: same page + different line is illegal within a
                // simultaneous-access group.
                if (shares_group(d, e)) return false;
            }
        }
        return true;
    };

    // First-fit with chronological backtracking under a node budget.
    std::int64_t budget = kMaxTrials;
    std::size_t k = 0;
    std::vector<int> next_slot(items.size(), 0);
    while (k < items.size()) {
        bool advanced = false;
        for (int slot = next_slot[k]; slot < num_slots; ++slot) {
            if (budget-- <= 0) return result;  // ok = false
            if (!feasible(k, slot)) continue;
            placed[k] = slot;
            next_slot[k] = slot + 1;
            ++k;
            if (k < items.size()) next_slot[k] = 0;
            advanced = true;
            break;
        }
        if (!advanced) {
            if (k == 0) return result;  // ok = false: no assignment exists
            next_slot[k] = 0;
            --k;
            placed[k] = -1;
        }
    }

    std::set<int> used;
    for (std::size_t j = 0; j < items.size(); ++j) {
        result.slot[static_cast<std::size_t>(items[j].node)] = placed[j];
        used.insert(placed[j]);
    }
    result.slots_used = static_cast<int>(used.size());
    result.ok = true;
    return result;
}

}  // namespace revec::heur
