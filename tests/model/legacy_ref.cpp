// Verbatim pre-refactor schedule verifier. See legacy_ref.hpp — do not
// modernize; the checker-agreement test depends on this code staying
// frozen.
#include "legacy_ref.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "revec/ir/analysis.hpp"

namespace revec::legacy {

namespace {

std::string at_node(const ir::Graph& g, int id) {
    std::ostringstream os;
    const ir::Node& n = g.node(id);
    os << "node " << id << " (" << ir::cat_name(n.cat);
    if (!n.op.empty()) os << " " << n.op;
    os << ")";
    return os.str();
}

}  // namespace

std::vector<std::string> verify_schedule(const arch::ArchSpec& spec, const ir::Graph& g,
                                         const sched::Schedule& sched,
                                         const model::LowerOptions& options) {
    std::vector<std::string> problems;
    const auto report = [&](const std::string& msg) { problems.push_back(msg); };

    if (sched.start.size() != static_cast<std::size_t>(g.num_nodes())) {
        report("schedule start vector has wrong size");
        return problems;
    }
    const auto s = [&](int id) { return sched.start[static_cast<std::size_t>(id)]; };

    // -- eq. (1) precedence / eq. (4) data starts ------------------------------
    for (const ir::Node& node : g.nodes()) {
        const ir::NodeTiming t = ir::node_timing(spec, node);
        for (const int succ : g.succs(node.id)) {
            if (g.node(succ).is_data()) {
                if (s(succ) != s(node.id) + t.latency) {
                    report(at_node(g, succ) + " starts at " + std::to_string(s(succ)) +
                           ", expected producer start + latency = " +
                           std::to_string(s(node.id) + t.latency));
                }
            } else if (s(node.id) + t.latency > s(succ)) {
                report("precedence violated: " + at_node(g, node.id) + " -> " +
                       at_node(g, succ));
            }
        }
    }
    for (const int d : g.input_nodes()) {
        if (s(d) != 0) report(at_node(g, d) + ": input data must start at 0");
    }

    // -- eq. (2) lane capacity, eq. (3) one configuration per cycle, and the
    //    scalar / index-merge units ------------------------------------------------
    std::map<int, int> lanes_at;
    std::map<int, std::string> config_at;
    std::map<int, int> scalar_at;
    std::map<int, int> ixmerge_at;
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op()) continue;
        const ir::NodeTiming t = ir::node_timing(spec, node);
        for (int dt = 0; dt < t.duration; ++dt) {
            const int at = s(node.id) + dt;
            if (t.lanes > 0) {
                lanes_at[at] += t.lanes;
                const std::string key = ir::config_key(node);
                auto [it, inserted] = config_at.emplace(at, key);
                if (!inserted && it->second != key) {
                    report("two configurations at cycle " + std::to_string(at) + ": " +
                           it->second + " vs " + key);
                }
            } else if (node.cat == ir::NodeCat::ScalarOp) {
                ++scalar_at[at];
            } else {
                ++ixmerge_at[at];
            }
        }
    }
    for (const auto& [at, lanes] : lanes_at) {
        if (lanes > spec.vector_lanes) {
            report("lane overload at cycle " + std::to_string(at) + ": " +
                   std::to_string(lanes) + " > " + std::to_string(spec.vector_lanes));
        }
    }
    for (const auto& [at, cnt] : scalar_at) {
        if (cnt > spec.scalar_units) {
            report("scalar unit overload at cycle " + std::to_string(at));
        }
    }
    for (const auto& [at, cnt] : ixmerge_at) {
        if (cnt > spec.index_merge_units) {
            report("index/merge unit overload at cycle " + std::to_string(at));
        }
    }

    // -- makespan (eq. 5) -------------------------------------------------------------
    int makespan = 0;
    for (const ir::Node& node : g.nodes()) {
        makespan = std::max(makespan, s(node.id) + ir::node_timing(spec, node).latency);
    }
    if (makespan != sched.makespan) {
        report("recorded makespan " + std::to_string(sched.makespan) + " != computed " +
               std::to_string(makespan));
    }

    // -- memory-port limits (model extension; slot-independent) ----------------
    if (options.enforce_port_limits) {
        std::map<int, int> reads_count;
        std::map<int, int> writes_count;
        for (const ir::Node& node : g.nodes()) {
            if (!node.is_op()) continue;
            const ir::NodeTiming t = ir::node_timing(spec, node);
            if (t.lanes > 0) {
                int reads = 0;
                for (const int p : g.preds(node.id)) {
                    if (g.node(p).cat == ir::NodeCat::VectorData) ++reads;
                }
                reads_count[s(node.id)] += reads;
            }
            for (const int succ : g.succs(node.id)) {
                if (g.node(succ).cat == ir::NodeCat::VectorData) {
                    ++writes_count[s(node.id) + t.latency];
                }
            }
        }
        for (const auto& [at, cnt] : reads_count) {
            if (cnt > spec.max_vector_reads_per_cycle) {
                report("read-port overload at cycle " + std::to_string(at) + ": " +
                       std::to_string(cnt) + " > " +
                       std::to_string(spec.max_vector_reads_per_cycle));
            }
        }
        for (const auto& [at, cnt] : writes_count) {
            if (cnt > spec.max_vector_writes_per_cycle) {
                report("write-port overload at cycle " + std::to_string(at) + ": " +
                       std::to_string(cnt) + " > " +
                       std::to_string(spec.max_vector_writes_per_cycle));
            }
        }
    }

    if (!options.memory_allocation) return problems;

    // -- memory allocation (eqs. 6-11) ---------------------------------------------------
    if (sched.slot.size() != static_cast<std::size_t>(g.num_nodes())) {
        report("schedule slot vector has wrong size");
        return problems;
    }
    const arch::MemoryGeometry& geom = spec.memory;
    const std::vector<int> vdata = g.nodes_of(ir::NodeCat::VectorData);
    const auto slot = [&](int id) { return sched.slot[static_cast<std::size_t>(id)]; };

    for (const int d : vdata) {
        if (slot(d) < 0 || slot(d) >= geom.slots()) {
            report(at_node(g, d) + ": slot " + std::to_string(slot(d)) + " out of range");
        }
    }
    if (!problems.empty()) return problems;

    // Lifetimes (eq. 10) and slot reuse (eq. 11).
    const auto life_of = [&](int d) {
        int last = s(d);
        bool has_user = false;
        for (const int succ : g.succs(d)) {
            last = std::max(last, s(succ));
            has_user = true;
        }
        int extra = options.lifetime_includes_last_read ? 1 : 0;
        if (!has_user || g.node(d).is_output) {
            // Sinks and outputs persist one cycle past the schedule end.
            last = std::max(last, makespan);
            extra += 1;
        } else if (g.preds(d).empty() && extra == 0) {
            extra = 1;  // preloaded inputs occupy their slot through the last read
        }
        return last - s(d) + extra;
    };
    for (std::size_t a = 0; a < vdata.size(); ++a) {
        for (std::size_t b = a + 1; b < vdata.size(); ++b) {
            const int d = vdata[a];
            const int e = vdata[b];
            if (slot(d) != slot(e)) continue;
            // Zero-length lifetimes occupy nothing (Diff2 semantics: an
            // empty rectangle overlaps no other).
            if (life_of(d) == 0 || life_of(e) == 0) continue;
            const int d_end = s(d) + life_of(d);
            const int e_end = s(e) + life_of(e);
            const bool overlap = s(d) < e_end && s(e) < d_end;
            if (overlap) {
                report("slot " + std::to_string(slot(d)) + " reused while live: " +
                       at_node(g, d) + " [" + std::to_string(s(d)) + "," +
                       std::to_string(d_end) + ") vs " + at_node(g, e) + " [" +
                       std::to_string(s(e)) + "," + std::to_string(e_end) + ")");
            }
        }
    }

    // Simultaneous-access rules (eqs. 7-9): group the vector-data inputs of
    // all vector-core ops issued in a cycle (reads) and the vector data
    // produced in a cycle (writes); within each group, same page => same line.
    std::map<int, std::vector<int>> reads_at;   // cycle -> slots
    std::map<int, std::vector<int>> writes_at;  // cycle -> slots
    for (const ir::Node& node : g.nodes()) {
        if (node.is_op() && ir::node_timing(spec, node).lanes > 0) {
            for (const int p : g.preds(node.id)) {
                if (g.node(p).cat == ir::NodeCat::VectorData) {
                    reads_at[s(node.id)].push_back(slot(p));
                }
            }
        }
        // Every produced vector datum is a memory write landing at the
        // data's start (its producer's completion), regardless of unit —
        // vector core or merge (see the generalized eq. 9 in the model).
        if (node.cat == ir::NodeCat::VectorData && !g.preds(node.id).empty()) {
            writes_at[s(node.id)].push_back(slot(node.id));
        }
    }
    const auto check_group = [&](int at, const std::vector<int>& slots, const char* what) {
        std::map<int, int> page_line;
        for (const int sl : slots) {
            const int page = geom.page_of(sl);
            const int line = geom.line_of(sl);
            const auto [it, inserted] = page_line.emplace(page, line);
            if (!inserted && it->second != line) {
                report(std::string(what) + " at cycle " + std::to_string(at) + " hit page " +
                       std::to_string(page) + " on lines " + std::to_string(it->second) +
                       " and " + std::to_string(line));
                return;
            }
        }
    };
    for (const auto& [at, slots] : reads_at) check_group(at, slots, "reads");
    for (const auto& [at, slots] : writes_at) check_group(at, slots, "writes");

    return problems;
}

}  // namespace revec::legacy
