#include "revec/heur/alloc.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "revec/support/assert.hpp"

namespace revec::heur {

namespace {

/// Search budget: total slot trials (greedy probes + backtracking) before
/// the allocator gives up; every slot a visit looks at, free or not, is one
/// trial. A trial reads two marks that one pass over the item's placed
/// partners set for the visit, so an exhausted budget costs 20-30 ms per
/// failed ladder rung (200-op vector-only kernel, 161 vector data, 4-vCPU
/// host); kernels that thrash the chronological backtracking need a few
/// million trials before the first-fit order untangles.
constexpr std::int64_t kMaxTrials = 8000000;

/// One vector datum to place: its occupied interval [begin, end) (eq. 10,
/// with the model's executable-lifetime extensions) and the keys of the
/// simultaneous-access groups it belongs to (eqs. 7-9), ascending.
struct Item {
    int node = -1;
    int begin = 0;
    int end = 0;  ///< begin + lifetime; empty interval when equal
    std::vector<std::int64_t> groups;
};

/// An earlier item that constrains this one's slot: it must not take the
/// partner's slot, and when the two share an access group it must not take
/// another line of the partner's page either.
struct Partner {
    std::size_t item = 0;
    bool shares_group = false;
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
    // no two slots may be in access conflict. A group is named by its
    // cycle: key 2c for the reads of cycle c, 2c + 1 for its writes.
    std::vector<std::vector<std::int64_t>> groups_of(static_cast<std::size_t>(m.num_nodes()));
    for (const model::ModelNode& node : m.nodes) {
        if (node.is_op && node.lanes > 0) {
            for (const int p : node.vector_inputs) {
                groups_of[static_cast<std::size_t>(p)].push_back(std::int64_t{2} * s(node.id));
            }
        }
        if (node.is_vector_data && !node.preds.empty()) {
            groups_of[static_cast<std::size_t>(node.id)].push_back(std::int64_t{2} * s(node.id) +
                                                                    1);
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
        item.groups = std::move(groups_of[static_cast<std::size_t>(d)]);
        std::sort(item.groups.begin(), item.groups.end());
        items.push_back(std::move(item));
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

    const auto shares_group = [](const Item& a, const Item& b) {
        auto ia = a.groups.begin();
        auto ib = b.groups.begin();
        while (ia != a.groups.end() && ib != b.groups.end()) {
            if (*ia == *ib) return true;
            (*ia < *ib) ? ++ia : ++ib;
        }
        return false;
    };

    // Which earlier items constrain each item does not depend on the
    // placement, so it is worked out once: eq. 11 (live intervals overlap;
    // an empty interval occupies nothing) and eqs. 7-9 (a shared access
    // group).
    std::vector<std::vector<Partner>> partners(items.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
        const Item& d = items[k];
        for (std::size_t j = 0; j < k; ++j) {
            const Item& e = items[j];
            const bool overlap =
                d.begin < e.end && e.begin < d.end && d.end > d.begin && e.end > e.begin;
            const bool shares = shares_group(d, e);
            if (overlap || shares) partners[k].push_back({j, shares});
        }
    }

    const arch::MemoryGeometry& geom = m.geometry;
    REVEC_EXPECTS(std::int64_t{geom.banks} * geom.lines <= arch::kMaxSlots);
    const int num_slots = std::min(m.num_slots, geom.slots());
    std::vector<int> placed(items.size(), -1);  // chosen slot per item index

    // The slots a visit of item k rules out, marked in one pass over its
    // placed partners: each partner's own slot (eq. 11; two data of one
    // access group never share a slot either), and for an access-group
    // partner every other line of its page (eqs. 7-9: same page, different
    // line). A mark is the visit's number, so no table is ever cleared.
    const int pages = (geom.banks + geom.banks_per_page - 1) / geom.banks_per_page;
    std::vector<int> slot_mark(static_cast<std::size_t>(num_slots), 0);
    std::vector<int> page_mark(static_cast<std::size_t>(pages), 0);
    std::vector<int> page_line(static_cast<std::size_t>(pages), 0);  // -1: no line is free
    int visit = 0;
    const auto rule_out = [&](std::size_t k) {
        ++visit;
        for (const Partner& p : partners[k]) {
            const int es = placed[p.item];
            slot_mark[static_cast<std::size_t>(es)] = visit;
            if (!p.shares_group) continue;
            const auto page = static_cast<std::size_t>(geom.page_of(es));
            if (page_mark[page] != visit) {
                page_mark[page] = visit;
                page_line[page] = geom.line_of(es);
            } else if (page_line[page] != geom.line_of(es)) {
                page_line[page] = -1;
            }
        }
    };
    const auto is_free = [&](int slot) {
        if (slot_mark[static_cast<std::size_t>(slot)] == visit) return false;
        const auto page = static_cast<std::size_t>(geom.page_of(slot));
        return page_mark[page] != visit || page_line[page] == geom.line_of(slot);
    };

    // First-fit with chronological backtracking under a trial budget.
    std::int64_t budget = kMaxTrials;
    std::size_t k = 0;
    std::vector<int> next_slot(items.size(), 0);
    while (k < items.size()) {
        rule_out(k);
        bool advanced = false;
        for (int slot = next_slot[k]; slot < num_slots; ++slot) {
            if (budget-- <= 0) return result;  // ok = false
            if (!is_free(slot)) continue;
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

    std::vector<char> used(static_cast<std::size_t>(num_slots), 0);
    for (std::size_t j = 0; j < items.size(); ++j) {
        result.slot[static_cast<std::size_t>(items[j].node)] = placed[j];
        char& u = used[static_cast<std::size_t>(placed[j])];
        result.slots_used += u == 0 ? 1 : 0;
        u = 1;
    }
    result.ok = true;
    return result;
}

}  // namespace revec::heur
