#include "revec/model/check.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace revec::model {

namespace {

std::string at_node(const KernelModel& m, int id) {
    std::ostringstream os;
    const ModelNode& n = m.node(id);
    os << "node " << id << " (" << ir::cat_name(n.cat);
    if (!n.op.empty()) os << " " << n.op;
    os << ")";
    return os.str();
}

/// `amount` of one resource used in `cycle`; `seq` is the order the walk
/// over the model met the use in. `value` is the configuration a
/// vector-core use loads, or the slot a memory access touches.
struct Use {
    int cycle = 0;
    int seq = 0;
    int amount = 1;
    int value = 0;
};

void push(std::vector<Use>& uses, int cycle, int amount, int value = 0) {
    uses.push_back({cycle, static_cast<int>(uses.size()), amount, value});
}

/// Sort `uses` by cycle, keeping the walk order within a cycle, and call
/// per_cycle(first, last, total amount) for each used cycle in ascending
/// order. Only the uses are stored, never the cycles between them, so a
/// start at 10^9 costs what a start at 1 does.
template <typename PerCycle>
void for_each_cycle(std::vector<Use>& uses, PerCycle&& per_cycle) {
    std::sort(uses.begin(), uses.end(), [](const Use& a, const Use& b) {
        return a.cycle != b.cycle ? a.cycle < b.cycle : a.seq < b.seq;
    });
    for (auto first = uses.begin(); first != uses.end();) {
        auto last = first;
        int total = 0;
        for (; last != uses.end() && last->cycle == first->cycle; ++last) total += last->amount;
        per_cycle(first, last, total);
        first = last;
    }
}

}  // namespace

std::vector<std::string> check_schedule(const KernelModel& m, const std::vector<int>& start,
                                        const std::vector<int>& slot, int recorded_makespan) {
    std::vector<std::string> problems;
    const auto report = [&](const std::string& msg) { problems.push_back(msg); };

    if (start.size() != static_cast<std::size_t>(m.num_nodes())) {
        report("schedule start vector has wrong size");
        return problems;
    }
    const auto s = [&](int id) { return start[static_cast<std::size_t>(id)]; };

    // -- eq. (1) precedence / eq. (4) data starts ------------------------------
    for (const ModelEdge& e : m.edges) {
        if (e.kind == EdgeKind::DataProduce) {
            if (s(e.dst) != s(e.src) + e.latency) {
                report(at_node(m, e.dst) + " starts at " + std::to_string(s(e.dst)) +
                       ", expected producer start + latency = " +
                       std::to_string(s(e.src) + e.latency));
            }
        } else if (s(e.src) + e.latency > s(e.dst)) {
            report("precedence violated: " + at_node(m, e.src) + " -> " + at_node(m, e.dst));
        }
    }
    for (const int d : m.inputs) {
        if (s(d) != 0) report(at_node(m, d) + ": input data must start at 0");
    }

    // -- pinned starts (slot-only models) -------------------------------------
    if (!m.fixed_starts.empty()) {
        if (m.fixed_starts.size() != start.size()) {
            report("fixed_starts has wrong size");
        } else {
            for (const ModelNode& node : m.nodes) {
                const int pinned = m.fixed_starts[static_cast<std::size_t>(node.id)];
                if (s(node.id) != pinned) {
                    report(at_node(m, node.id) + " starts at " + std::to_string(s(node.id)) +
                           ", pinned at " + std::to_string(pinned));
                }
            }
        }
    }

    // -- eq. (2) lane capacity, eq. (3) one configuration per cycle, and the
    //    scalar / index-merge units ------------------------------------------------
    std::vector<Use> lane_uses;
    std::vector<Use> scalar_uses;
    std::vector<Use> ixmerge_uses;
    for (const int op : m.ops) {
        const ModelNode& node = m.node(op);
        for (int dt = 0; dt < node.duration; ++dt) {
            const int at = s(op) + dt;
            if (node.lanes > 0) {
                push(lane_uses, at, node.lanes, node.config);
            } else if (node.unit == Unit::Scalar) {
                push(scalar_uses, at, 1);
            } else {
                push(ixmerge_uses, at, 1);
            }
        }
    }
    // A cycle holds the configuration of its first use; every later use
    // that loads another one is reported, in walk order, before the lane
    // overloads, in cycle order.
    struct Clash {
        int seq;
        int cycle;
        int loaded;
        int config;
    };
    std::vector<Clash> clashes;
    std::vector<std::pair<int, int>> overloads;  // (cycle, lanes)
    for_each_cycle(lane_uses, [&](auto first, auto last, int lanes) {
        for (auto u = first + 1; u != last; ++u) {
            if (u->value != first->value) {
                clashes.push_back({u->seq, u->cycle, first->value, u->value});
            }
        }
        if (lanes > m.caps.vector_lanes) overloads.emplace_back(first->cycle, lanes);
    });
    std::sort(clashes.begin(), clashes.end(),
              [](const Clash& a, const Clash& b) { return a.seq < b.seq; });
    for (const Clash& c : clashes) {
        report("two configurations at cycle " + std::to_string(c.cycle) + ": " +
               m.config_keys[static_cast<std::size_t>(c.loaded)] + " vs " +
               m.config_keys[static_cast<std::size_t>(c.config)]);
    }
    for (const auto& [at, lanes] : overloads) {
        report("lane overload at cycle " + std::to_string(at) + ": " + std::to_string(lanes) +
               " > " + std::to_string(m.caps.vector_lanes));
    }
    for_each_cycle(scalar_uses, [&](auto first, auto, int cnt) {
        if (cnt > m.caps.scalar_units) {
            report("scalar unit overload at cycle " + std::to_string(first->cycle));
        }
    });
    for_each_cycle(ixmerge_uses, [&](auto first, auto, int cnt) {
        if (cnt > m.caps.index_merge_units) {
            report("index/merge unit overload at cycle " + std::to_string(first->cycle));
        }
    });

    // -- makespan (eq. 5) -------------------------------------------------------------
    int makespan = 0;
    for (const ModelNode& node : m.nodes) {
        makespan = std::max(makespan, s(node.id) + node.latency);
    }
    if (makespan != recorded_makespan) {
        report("recorded makespan " + std::to_string(recorded_makespan) + " != computed " +
               std::to_string(makespan));
    }

    // -- memory-port limits (model extension; slot-independent) ----------------
    if (m.enforce_port_limits) {
        std::vector<Use> reads;
        std::vector<Use> writes;
        for (const int op : m.ops) {
            const ModelNode& node = m.node(op);
            if (node.lanes > 0) {
                push(reads, s(op), static_cast<int>(node.vector_inputs.size()));
            }
            if (!node.vector_outputs.empty()) {
                push(writes, s(op) + node.latency,
                     static_cast<int>(node.vector_outputs.size()));
            }
        }
        for_each_cycle(reads, [&](auto first, auto, int cnt) {
            if (cnt > m.caps.max_vector_reads) {
                report("read-port overload at cycle " + std::to_string(first->cycle) + ": " +
                       std::to_string(cnt) + " > " + std::to_string(m.caps.max_vector_reads));
            }
        });
        for_each_cycle(writes, [&](auto first, auto, int cnt) {
            if (cnt > m.caps.max_vector_writes) {
                report("write-port overload at cycle " + std::to_string(first->cycle) + ": " +
                       std::to_string(cnt) + " > " + std::to_string(m.caps.max_vector_writes));
            }
        });
    }

    if (!m.memory_allocation) return problems;

    // -- memory allocation (eqs. 6-11) ---------------------------------------------------
    if (slot.size() != static_cast<std::size_t>(m.num_nodes())) {
        report("schedule slot vector has wrong size");
        return problems;
    }
    const arch::MemoryGeometry& geom = m.geometry;
    const auto slot_of = [&](int id) { return slot[static_cast<std::size_t>(id)]; };

    // The model's slot budget ("#slots available"), never past the memory.
    const int num_slots = std::min(m.num_slots, geom.slots());
    for (const int d : m.vdata) {
        if (slot_of(d) < 0 || slot_of(d) >= num_slots) {
            report(at_node(m, d) + ": slot " + std::to_string(slot_of(d)) + " out of range");
        }
    }
    if (!problems.empty()) return problems;

    // Lifetimes (eq. 10), once per datum, and slot reuse (eq. 11). Only data
    // in one slot can clash, so pairs are formed within each slot; the
    // reports follow the order of the pairs in m.vdata.
    const std::vector<int>& vdata = m.vdata;
    std::vector<int> life(vdata.size());
    for (std::size_t a = 0; a < vdata.size(); ++a) {
        const ModelNode& node = m.node(vdata[a]);
        int last = s(node.id);
        for (const int succ : node.succs) last = std::max(last, s(succ));
        // Sinks and outputs persist one cycle past the schedule end; the
        // extra cycles are precomputed in lifetime_extra.
        if (node.persists) last = std::max(last, makespan);
        life[a] = last - s(node.id) + node.lifetime_extra;
    }
    std::vector<std::size_t> by_slot(vdata.size());
    for (std::size_t a = 0; a < vdata.size(); ++a) by_slot[a] = a;
    std::sort(by_slot.begin(), by_slot.end(), [&](std::size_t a, std::size_t b) {
        const int sa = slot_of(vdata[a]);
        const int sb = slot_of(vdata[b]);
        return sa != sb ? sa < sb : a < b;
    });
    std::vector<std::pair<std::size_t, std::size_t>> reused;
    for (std::size_t i = 0; i < by_slot.size(); ++i) {
        const std::size_t a = by_slot[i];
        // Zero-length lifetimes occupy nothing (Diff2 semantics: an empty
        // rectangle overlaps no other).
        if (life[a] == 0) continue;
        for (std::size_t j = i + 1; j < by_slot.size(); ++j) {
            const std::size_t b = by_slot[j];
            if (slot_of(vdata[b]) != slot_of(vdata[a])) break;
            if (life[b] == 0) continue;
            if (s(vdata[a]) < s(vdata[b]) + life[b] && s(vdata[b]) < s(vdata[a]) + life[a]) {
                reused.emplace_back(a, b);
            }
        }
    }
    std::sort(reused.begin(), reused.end());
    for (const auto& [a, b] : reused) {
        const int d = vdata[a];
        const int e = vdata[b];
        report("slot " + std::to_string(slot_of(d)) + " reused while live: " + at_node(m, d) +
               " [" + std::to_string(s(d)) + "," + std::to_string(s(d) + life[a]) + ") vs " +
               at_node(m, e) + " [" + std::to_string(s(e)) + "," +
               std::to_string(s(e) + life[b]) + ")");
    }

    // Simultaneous-access rules (eqs. 7-9): group the vector-data inputs of
    // all vector-core ops issued in a cycle (reads) and the vector data
    // produced in a cycle (writes); within each group, no two slots may be
    // in access conflict (same page, different line).
    std::vector<Use> reads;
    std::vector<Use> writes;
    for (const ModelNode& node : m.nodes) {
        if (node.is_op && node.lanes > 0) {
            for (const int p : node.vector_inputs) push(reads, s(node.id), 1, slot_of(p));
        }
        // Every produced vector datum is a memory write landing at the
        // data's start (its producer's completion), regardless of unit —
        // vector core or merge (see the generalized eq. 9 in the emitter).
        if (node.is_vector_data && !node.preds.empty()) {
            push(writes, s(node.id), 1, slot_of(node.id));
        }
    }
    // Each access is held against the first slot the group touched in its
    // page; a group reports its first conflict only.
    const auto check_groups = [&](std::vector<Use>& accesses, const char* what) {
        for_each_cycle(accesses, [&](auto first, auto last, int) {
            for (auto u = first + 1; u != last; ++u) {
                const int sl = u->value;
                auto seen = first;
                while (geom.page_of(seen->value) != geom.page_of(sl)) ++seen;
                if (geom.access_conflict(seen->value, sl)) {
                    report(std::string(what) + " at cycle " + std::to_string(u->cycle) +
                           " hit page " + std::to_string(geom.page_of(sl)) + " on lines " +
                           std::to_string(geom.line_of(seen->value)) + " and " +
                           std::to_string(geom.line_of(sl)));
                    return;
                }
            }
        });
    };
    check_groups(reads, "reads");
    check_groups(writes, "writes");

    return problems;
}

}  // namespace revec::model
