#include "revec/model/check.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace revec::model {

namespace {

std::string at_node(const KernelModel& m, int id) {
    std::ostringstream os;
    const ModelNode& n = m.node(id);
    os << "node " << id << " (" << n.cat;
    if (!n.op.empty()) os << " " << n.op;
    os << ")";
    return os.str();
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
    std::map<int, int> lanes_at;
    std::map<int, int> config_at;
    std::map<int, int> scalar_at;
    std::map<int, int> ixmerge_at;
    for (const int op : m.ops) {
        const ModelNode& node = m.node(op);
        for (int dt = 0; dt < node.duration; ++dt) {
            const int at = s(op) + dt;
            if (node.lanes > 0) {
                lanes_at[at] += node.lanes;
                auto [it, inserted] = config_at.emplace(at, node.config);
                if (!inserted && it->second != node.config) {
                    report("two configurations at cycle " + std::to_string(at) + ": " +
                           m.config_keys[static_cast<std::size_t>(it->second)] + " vs " +
                           m.config_keys[static_cast<std::size_t>(node.config)]);
                }
            } else if (node.unit == Unit::Scalar) {
                ++scalar_at[at];
            } else {
                ++ixmerge_at[at];
            }
        }
    }
    for (const auto& [at, lanes] : lanes_at) {
        if (lanes > m.caps.vector_lanes) {
            report("lane overload at cycle " + std::to_string(at) + ": " +
                   std::to_string(lanes) + " > " + std::to_string(m.caps.vector_lanes));
        }
    }
    for (const auto& [at, cnt] : scalar_at) {
        if (cnt > m.caps.scalar_units) {
            report("scalar unit overload at cycle " + std::to_string(at));
        }
    }
    for (const auto& [at, cnt] : ixmerge_at) {
        if (cnt > m.caps.index_merge_units) {
            report("index/merge unit overload at cycle " + std::to_string(at));
        }
    }

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
        std::map<int, int> reads_count;
        std::map<int, int> writes_count;
        for (const int op : m.ops) {
            const ModelNode& node = m.node(op);
            if (node.lanes > 0) {
                reads_count[s(op)] += static_cast<int>(node.vector_inputs.size());
            }
            if (!node.vector_outputs.empty()) {
                writes_count[s(op) + node.latency] +=
                    static_cast<int>(node.vector_outputs.size());
            }
        }
        for (const auto& [at, cnt] : reads_count) {
            if (cnt > m.caps.max_vector_reads) {
                report("read-port overload at cycle " + std::to_string(at) + ": " +
                       std::to_string(cnt) + " > " + std::to_string(m.caps.max_vector_reads));
            }
        }
        for (const auto& [at, cnt] : writes_count) {
            if (cnt > m.caps.max_vector_writes) {
                report("write-port overload at cycle " + std::to_string(at) + ": " +
                       std::to_string(cnt) + " > " + std::to_string(m.caps.max_vector_writes));
            }
        }
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

    // Lifetimes (eq. 10) and slot reuse (eq. 11).
    const auto life_of = [&](int d) {
        const ModelNode& node = m.node(d);
        int last = s(d);
        for (const int succ : node.succs) last = std::max(last, s(succ));
        // Sinks and outputs persist one cycle past the schedule end; the
        // extra cycles are precomputed in lifetime_extra.
        if (node.persists) last = std::max(last, makespan);
        return last - s(d) + node.lifetime_extra;
    };
    for (std::size_t a = 0; a < m.vdata.size(); ++a) {
        for (std::size_t b = a + 1; b < m.vdata.size(); ++b) {
            const int d = m.vdata[a];
            const int e = m.vdata[b];
            if (slot_of(d) != slot_of(e)) continue;
            // Zero-length lifetimes occupy nothing (Diff2 semantics: an
            // empty rectangle overlaps no other).
            if (life_of(d) == 0 || life_of(e) == 0) continue;
            const int d_end = s(d) + life_of(d);
            const int e_end = s(e) + life_of(e);
            const bool overlap = s(d) < e_end && s(e) < d_end;
            if (overlap) {
                report("slot " + std::to_string(slot_of(d)) + " reused while live: " +
                       at_node(m, d) + " [" + std::to_string(s(d)) + "," +
                       std::to_string(d_end) + ") vs " + at_node(m, e) + " [" +
                       std::to_string(s(e)) + "," + std::to_string(e_end) + ")");
            }
        }
    }

    // Simultaneous-access rules (eqs. 7-9): group the vector-data inputs of
    // all vector-core ops issued in a cycle (reads) and the vector data
    // produced in a cycle (writes); within each group, no two slots may be
    // in access conflict (same page, different line).
    std::map<int, std::vector<int>> reads_at;   // cycle -> slots
    std::map<int, std::vector<int>> writes_at;  // cycle -> slots
    for (const ModelNode& node : m.nodes) {
        if (node.is_op && node.lanes > 0) {
            for (const int p : node.vector_inputs) {
                reads_at[s(node.id)].push_back(slot_of(p));
            }
        }
        // Every produced vector datum is a memory write landing at the
        // data's start (its producer's completion), regardless of unit —
        // vector core or merge (see the generalized eq. 9 in the emitter).
        if (node.is_vector_data && !node.preds.empty()) {
            writes_at[s(node.id)].push_back(slot_of(node.id));
        }
    }
    const auto check_group = [&](int at, const std::vector<int>& slots, const char* what) {
        std::map<int, int> first_in_page;  // page -> first slot accessed
        for (const int sl : slots) {
            const auto [it, inserted] = first_in_page.emplace(geom.page_of(sl), sl);
            if (!inserted && geom.access_conflict(it->second, sl)) {
                report(std::string(what) + " at cycle " + std::to_string(at) + " hit page " +
                       std::to_string(geom.page_of(sl)) + " on lines " +
                       std::to_string(geom.line_of(it->second)) + " and " +
                       std::to_string(geom.line_of(sl)));
                return;
            }
        }
    };
    for (const auto& [at, slots] : reads_at) check_group(at, slots, "reads");
    for (const auto& [at, slots] : writes_at) check_group(at, slots, "writes");

    return problems;
}

}  // namespace revec::model
