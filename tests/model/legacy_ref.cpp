// Verbatim pre-refactor lowerings and verifier. See legacy_ref.hpp — do
// not modernize; the node-parity tests depend on this code staying frozen.
#include "legacy_ref.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "revec/cp/arith.hpp"
#include "revec/cp/count.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/diff2.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/reified.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/support/assert.hpp"

namespace revec::legacy {

namespace {

using cp::IntVar;

/// Caches reified equality booleans so shared pairs post one propagator.
class EqBoolCache {
public:
    explicit EqBoolCache(cp::Store& store) : store_(store) {}

    cp::BoolVar get(IntVar x, IntVar y) {
        // std::minmax returns references into its argument temporaries;
        // copy into a value pair before they die.
        const std::pair<std::int32_t, std::int32_t> key =
            std::minmax(x.index(), y.index());
        const auto it = cache_.find(key);
        if (it != cache_.end()) return it->second;
        const cp::BoolVar b = store_.new_bool();
        cp::post_reified_eq(store_, b, x, y);
        cache_.emplace(key, b);
        return b;
    }

private:
    cp::Store& store_;
    std::map<std::pair<std::int32_t, std::int32_t>, cp::BoolVar> cache_;
};

}  // namespace

BuiltModel build_model(cp::Store& store, const ir::Graph& g,
                       const sched::ScheduleOptions& options, int num_slots, int horizon) {
    const arch::ArchSpec& spec = options.spec;
    const std::vector<int> asap = ir::asap_times(spec, g);
    const std::vector<int> alap = ir::alap_times(spec, g, horizon);
    const int n = g.num_nodes();

    // -- start-time variables, tightened by ASAP/ALAP ------------------------
    std::vector<IntVar> start(static_cast<std::size_t>(n));
    for (const ir::Node& node : g.nodes()) {
        const auto i = static_cast<std::size_t>(node.id);
        start[i] = store.new_var(asap[i], alap[i]);
    }

    // Inputs are ready from the start (paper: "any data node without any
    // predecessors gets the start time zero").
    for (const int d : g.input_nodes()) store.assign(start[static_cast<std::size_t>(d)], 0);

    // Slot-only mode: pin every start to the supplied schedule.
    if (!options.fixed_starts.empty()) {
        if (options.fixed_starts.size() != static_cast<std::size_t>(n)) {
            throw Error("fixed_starts must supply one start per node");
        }
        for (const ir::Node& node : g.nodes()) {
            const auto i = static_cast<std::size_t>(node.id);
            if (!store.assign(start[i], options.fixed_starts[i])) {
                throw Error("fixed start " + std::to_string(options.fixed_starts[i]) +
                            " for node " + std::to_string(node.id) +
                            " conflicts with the model bounds");
            }
        }
    }

    // -- objective: latest completion (eq. 5) ---------------------------------
    const IntVar obj = store.new_var(0, horizon);
    std::vector<IntVar> completions;
    for (const ir::Node& node : g.nodes()) {
        const ir::NodeTiming t = ir::node_timing(spec, node);
        const auto i = static_cast<std::size_t>(node.id);
        if (t.latency == 0) {
            completions.push_back(start[i]);
        } else {
            const IntVar c = store.new_var(0, horizon);
            cp::post_eq_offset(store, start[i], t.latency, c);
            completions.push_back(c);
        }
    }
    cp::post_max(store, obj, completions);

    // -- precedence (eq. 1) and data-node starts (eq. 4) ----------------------
    for (const ir::Node& node : g.nodes()) {
        const ir::NodeTiming t = ir::node_timing(spec, node);
        const auto i = static_cast<std::size_t>(node.id);
        for (const int succ : g.succs(node.id)) {
            const auto j = static_cast<std::size_t>(succ);
            if (g.node(succ).is_data()) {
                // eq. (4): a produced data node starts exactly when its
                // producer's latency has elapsed (implies eq. 1).
                cp::post_eq_offset(store, start[i], t.latency, start[j]);
            } else {
                cp::post_leq_offset(store, start[i], t.latency, start[j]);
            }
        }
    }

    // -- resource constraints (eq. 2 + the scalar and index/merge units) ------
    std::vector<cp::CumulTask> lane_tasks;
    std::vector<cp::CumulTask> scalar_tasks;
    std::vector<cp::CumulTask> ixmerge_tasks;
    std::vector<int> vector_ops;  // vector-core op ids (lane users)
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op()) continue;
        const ir::NodeTiming t = ir::node_timing(spec, node);
        const auto i = static_cast<std::size_t>(node.id);
        if (t.lanes > 0) {
            lane_tasks.push_back({start[i], t.duration, t.lanes});
            vector_ops.push_back(node.id);
        } else if (node.cat == ir::NodeCat::ScalarOp) {
            scalar_tasks.push_back({start[i], t.duration, 1});
        } else {
            ixmerge_tasks.push_back({start[i], t.duration, 1});
        }
    }
    if (!lane_tasks.empty()) cp::post_cumulative(store, lane_tasks, spec.vector_lanes);
    if (!scalar_tasks.empty()) cp::post_cumulative(store, scalar_tasks, spec.scalar_units);
    if (!ixmerge_tasks.empty()) {
        cp::post_cumulative(store, ixmerge_tasks, spec.index_merge_units);
    }

    // Physical memory-port limits (beyond the paper's model, see
    // ScheduleOptions::enforce_port_limits): vector-core reads happen at
    // issue time; vector writes land at the producer's completion.
    if (options.enforce_port_limits) {
        std::vector<cp::CumulTask> read_tasks;
        std::vector<cp::CumulTask> write_tasks;
        for (const ir::Node& node : g.nodes()) {
            if (!node.is_op()) continue;
            const ir::NodeTiming t = ir::node_timing(spec, node);
            const auto i = static_cast<std::size_t>(node.id);
            if (t.lanes > 0) {
                int reads = 0;
                for (const int p : g.preds(node.id)) {
                    if (g.node(p).cat == ir::NodeCat::VectorData) ++reads;
                }
                if (reads > 0) read_tasks.push_back({start[i], 1, reads});
            }
            int writes = 0;
            for (const int succ : g.succs(node.id)) {
                if (g.node(succ).cat == ir::NodeCat::VectorData) ++writes;
            }
            if (writes > 0) {
                // completions[i] exists for every op (latency > 0).
                write_tasks.push_back({completions[i], 1, writes});
            }
        }
        if (!read_tasks.empty()) {
            cp::post_cumulative(store, read_tasks, spec.max_vector_reads_per_cycle);
        }
        if (!write_tasks.empty()) {
            cp::post_cumulative(store, write_tasks, spec.max_vector_writes_per_cycle);
        }
    }

    // -- one configuration per cycle (eq. 3) -----------------------------------
    // Only single-lane (vector) op pairs need it: any pair involving a
    // matrix op is already excluded by the lane Cumulative.
    std::vector<int> single_lane_ops;
    for (const int op : vector_ops) {
        if (ir::node_timing(spec, g.node(op)).lanes < spec.vector_lanes) {
            single_lane_ops.push_back(op);
        }
    }
    for (std::size_t a = 0; a < single_lane_ops.size(); ++a) {
        for (std::size_t b = a + 1; b < single_lane_ops.size(); ++b) {
            const ir::Node& na = g.node(single_lane_ops[a]);
            const ir::Node& nb = g.node(single_lane_ops[b]);
            if (ir::config_key(na) != ir::config_key(nb)) {
                cp::post_not_equal(store, start[static_cast<std::size_t>(na.id)],
                                   start[static_cast<std::size_t>(nb.id)]);
            }
        }
    }

    // -- memory allocation (eqs. 6-11) ------------------------------------------
    const std::vector<int> vdata = g.nodes_of(ir::NodeCat::VectorData);
    std::vector<IntVar> slot_vars;  // parallel to vdata
    std::map<int, IntVar> slot_of;  // node id -> slot var
    std::map<int, IntVar> line_of;
    std::map<int, IntVar> page_of;

    if (options.memory_allocation) {
        REVEC_EXPECTS(num_slots > 0 || vdata.empty());  // checked by schedule_kernel
        const arch::MemoryGeometry geom = spec.memory;
        const int max_line = geom.line_of(num_slots - 1);
        const int max_page = geom.pages() - 1;

        std::vector<IntVar> lifetimes;
        std::vector<cp::Rect> rects;
        for (const int d : vdata) {
            const auto i = static_cast<std::size_t>(d);
            const IntVar slot = store.new_var(0, num_slots - 1);
            const IntVar line = store.new_var(0, max_line);
            const IntVar page = store.new_var(0, max_page);
            // eq. (6): channel the three views of the placement.
            cp::post_unary_fun(store, slot, line,
                               [geom](int s) { return geom.line_of(s); });
            cp::post_unary_fun(store, slot, page,
                               [geom](int s) { return geom.page_of(s); });
            slot_vars.push_back(slot);
            slot_of.emplace(d, slot);
            line_of.emplace(d, line);
            page_of.emplace(d, page);

            // eq. (10): lifetime = max(successor starts) - own start. Sinks
            // and program outputs stay live until one cycle past the
            // makespan — an output produced exactly at the makespan must
            // still be in memory when the program ends.
            std::vector<IntVar> users;
            for (const int succ : g.succs(d)) {
                users.push_back(start[static_cast<std::size_t>(succ)]);
            }
            const bool persists = users.empty() || g.node(d).is_output;
            if (persists) users.push_back(obj);
            const IntVar last_use = store.new_var(0, horizon + 1);
            cp::post_max(store, last_use, users);
            const IntVar life = store.new_var(0, horizon + 1);
            int extra = options.lifetime_includes_last_read ? 1 : 0;
            if (persists) {
                extra += 1;  // outputs/sinks persist past the schedule end
            } else if (g.preds(d).empty() && extra == 0) {
                extra = 1;  // preloaded inputs occupy their slot through the last read
            }
            // life = last_use - start + extra
            cp::post_linear_eq(store, {{1, life}, {-1, last_use}, {1, start[i]}}, extra);
            lifetimes.push_back(life);

            // eq. (11) rectangle: (time, slot) origin with lifetime width.
            rects.push_back(cp::Rect{start[i], slot, life, 1});
        }
        if (!rects.empty()) cp::post_diff2(store, rects);

        // Redundant but powerful: at no point can more vector data be live
        // than there are slots. Time-table reasoning over the (variable)
        // lifetimes detects memory-capacity infeasibility long before the
        // slot phase, which Diff2's pairwise reasoning cannot.
        {
            std::vector<cp::CumulTask> live_tasks;
            for (std::size_t k = 0; k < vdata.size(); ++k) {
                const auto i = static_cast<std::size_t>(vdata[k]);
                live_tasks.push_back(cp::CumulTask{start[i], 0, 1, lifetimes[k]});
            }
            cp::post_cumulative(store, live_tasks, num_slots);
        }

        EqBoolCache eq_start(store);
        EqBoolCache eq_page(store);
        EqBoolCache eq_line(store);

        // eq. (7): inputs of one vector-core operation are accessed together.
        const auto vector_preds = [&](int op) {
            std::vector<int> out;
            for (const int p : g.preds(op)) {
                if (g.node(p).cat == ir::NodeCat::VectorData) out.push_back(p);
            }
            return out;
        };
        for (const int op : vector_ops) {
            const std::vector<int> ins = vector_preds(op);
            for (std::size_t a = 0; a < ins.size(); ++a) {
                for (std::size_t b = a + 1; b < ins.size(); ++b) {
                    const cp::BoolVar bp = eq_page.get(page_of.at(ins[a]), page_of.at(ins[b]));
                    const cp::BoolVar bl = eq_line.get(line_of.at(ins[a]), line_of.at(ins[b]));
                    cp::post_implies(store, bp, bl);
                }
            }
        }

        // eq. (8): simultaneously issued vector-core operations read their
        // inputs together.
        for (std::size_t a = 0; a < vector_ops.size(); ++a) {
            for (std::size_t b = a + 1; b < vector_ops.size(); ++b) {
                const int op_i = vector_ops[a];
                const int op_j = vector_ops[b];
                // Two matrix ops (or a matrix and anything else) can never
                // share a cycle; skip the clauses entirely.
                if (ir::node_timing(spec, g.node(op_i)).lanes +
                        ir::node_timing(spec, g.node(op_j)).lanes >
                    spec.vector_lanes) {
                    continue;
                }
                const cp::BoolVar bs = eq_start.get(start[static_cast<std::size_t>(op_i)],
                                                    start[static_cast<std::size_t>(op_j)]);
                for (const int d : vector_preds(op_i)) {
                    for (const int e : vector_preds(op_j)) {
                        if (d == e) continue;
                        const cp::BoolVar bp = eq_page.get(page_of.at(d), page_of.at(e));
                        const cp::BoolVar bl = eq_line.get(line_of.at(d), line_of.at(e));
                        cp::post_clause(store, {cp::neg(bs), cp::neg(bp), cp::pos(bl)});
                    }
                }
            }
        }

        // eq. (9), generalized: vector writes that *land* in the same cycle
        // share the page descriptors. The paper groups by issue time over
        // vector-core ops only, which leaves a hole our simulator caught:
        // a merge-unit write (1-cycle latency) can land together with a
        // vector-core write (7-cycle latency) from an earlier issue. We
        // group by completion time across every vector-writing unit.
        struct Writer {
            int op;
            std::vector<int> vouts;
        };
        std::vector<Writer> writers;
        for (const ir::Node& node : g.nodes()) {
            if (!node.is_op()) continue;
            std::vector<int> vouts;
            for (const int succ : g.succs(node.id)) {
                if (g.node(succ).cat == ir::NodeCat::VectorData) vouts.push_back(succ);
            }
            if (!vouts.empty()) writers.push_back({node.id, std::move(vouts)});
        }
        EqBoolCache eq_completion(store);
        for (std::size_t a = 0; a < writers.size(); ++a) {
            for (std::size_t b = a + 1; b < writers.size(); ++b) {
                const cp::BoolVar bc =
                    eq_completion.get(completions[static_cast<std::size_t>(writers[a].op)],
                                      completions[static_cast<std::size_t>(writers[b].op)]);
                for (const int d : writers[a].vouts) {
                    for (const int e : writers[b].vouts) {
                        const cp::BoolVar bp = eq_page.get(page_of.at(d), page_of.at(e));
                        const cp::BoolVar bl = eq_line.get(line_of.at(d), line_of.at(e));
                        cp::post_clause(store, {cp::neg(bc), cp::neg(bp), cp::pos(bl)});
                    }
                }
            }
        }
    }

    // -- search phases (§3.5) ----------------------------------------------------
    std::vector<IntVar> op_starts;
    std::vector<IntVar> data_starts;
    for (const ir::Node& node : g.nodes()) {
        (node.is_op() ? op_starts : data_starts)
            .push_back(start[static_cast<std::size_t>(node.id)]);
    }

    std::vector<cp::Phase> phases;
    if (options.three_phase_search) {
        // The op phase follows emit_flat's first-fail order so both sides
        // still branch identically; every other line here stays frozen.
        phases.push_back({op_starts, cp::VarSelect::MinDomain, cp::ValSelect::Min, "ops"});
        phases.push_back({data_starts, cp::VarSelect::SmallestMin, cp::ValSelect::Min, "data"});
        phases.push_back({slot_vars, cp::VarSelect::InputOrder, cp::ValSelect::Min, "slots"});
    } else {
        std::vector<IntVar> all = op_starts;
        all.insert(all.end(), data_starts.begin(), data_starts.end());
        all.insert(all.end(), slot_vars.begin(), slot_vars.end());
        phases.push_back({all, cp::VarSelect::MinDomain, cp::ValSelect::Min, "all"});
    }

    return BuiltModel{std::move(start), std::move(slot_of), obj, std::move(phases)};
}

namespace {

/// Vector-core ops and their configuration ids (dense ints).
struct VectorConfigIndex {
    std::vector<int> ops;                 // vector-core op node ids
    std::vector<int> config_of_op;        // parallel: dense config id
    std::vector<std::string> config_key;  // dense id -> key
};

VectorConfigIndex index_vector_configs(const arch::ArchSpec& spec, const ir::Graph& g) {
    VectorConfigIndex idx;
    std::map<std::string, int> ids;
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op() || ir::node_timing(spec, node).lanes == 0) continue;
        const std::string key = ir::config_key(node);
        const auto [it, inserted] = ids.emplace(key, static_cast<int>(ids.size()));
        if (inserted) idx.config_key.push_back(key);
        idx.ops.push_back(node.id);
        idx.config_of_op.push_back(it->second);
    }
    return idx;
}

}  // namespace

ModuloModel build_modulo_model(cp::Store& store, const arch::ArchSpec& spec, const ir::Graph& g,
                               int ii, int horizon, bool minimize_reconfigs,
                               int reconfig_budget) {
    const int n = g.num_nodes();
    const std::vector<int> asap = ir::asap_times(spec, g);

    std::vector<IntVar> start(static_cast<std::size_t>(n));
    std::vector<IntVar> residue(static_cast<std::size_t>(n));
    std::vector<IntVar> stage(static_cast<std::size_t>(n));
    const int max_stage = horizon / ii + 1;

    for (const ir::Node& node : g.nodes()) {
        const auto i = static_cast<std::size_t>(node.id);
        start[i] = store.new_var(asap[i], horizon);
        if (!node.is_op()) continue;
        residue[i] = store.new_var(0, ii - 1);
        stage[i] = store.new_var(0, max_stage);
        // s = II * k + m
        cp::post_linear_eq(store, {{1, start[i]}, {-ii, stage[i]}, {-1, residue[i]}}, 0);
    }

    // Inputs at 0; data nodes follow eq. 4; precedence otherwise.
    for (const int d : g.input_nodes()) store.assign(start[static_cast<std::size_t>(d)], 0);
    for (const ir::Node& node : g.nodes()) {
        const ir::NodeTiming t = ir::node_timing(spec, node);
        const auto i = static_cast<std::size_t>(node.id);
        for (const int succ : g.succs(node.id)) {
            const auto j = static_cast<std::size_t>(succ);
            if (g.node(succ).is_data()) {
                cp::post_eq_offset(store, start[i], t.latency, start[j]);
            } else {
                cp::post_leq_offset(store, start[i], t.latency, start[j]);
            }
        }
    }

    // Kernel resource constraints on the residues.
    const VectorConfigIndex cfg = index_vector_configs(spec, g);
    std::vector<cp::CumulTask> lane_tasks;
    std::vector<cp::CumulTask> scalar_tasks;
    std::vector<cp::CumulTask> ix_tasks;
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op()) continue;
        const ir::NodeTiming t = ir::node_timing(spec, node);
        const auto i = static_cast<std::size_t>(node.id);
        if (t.lanes > 0) {
            lane_tasks.push_back({residue[i], t.duration, t.lanes});
        } else if (node.cat == ir::NodeCat::ScalarOp) {
            scalar_tasks.push_back({residue[i], t.duration, 1});
        } else {
            ix_tasks.push_back({residue[i], t.duration, 1});
        }
    }
    if (!lane_tasks.empty()) cp::post_cumulative(store, lane_tasks, spec.vector_lanes);
    if (!scalar_tasks.empty()) cp::post_cumulative(store, scalar_tasks, spec.scalar_units);
    if (!ix_tasks.empty()) cp::post_cumulative(store, ix_tasks, spec.index_merge_units);

    // One configuration per residue (eq. 3 in modulo form).
    for (std::size_t a = 0; a < cfg.ops.size(); ++a) {
        for (std::size_t b = a + 1; b < cfg.ops.size(); ++b) {
            if (cfg.config_of_op[a] == cfg.config_of_op[b]) continue;
            cp::post_not_equal(store, residue[static_cast<std::size_t>(cfg.ops[a])],
                               residue[static_cast<std::size_t>(cfg.ops[b])]);
        }
    }

    IntVar reconfig_count;
    std::vector<IntVar> type_vars;
    if (minimize_reconfigs && !cfg.ops.empty()) {
        const int num_configs = static_cast<int>(cfg.config_key.size());
        // Per-residue configuration variable. Unoccupied residues take any
        // value; letting them interpolate matches the semantics that nop
        // cycles keep the previous configuration loaded.
        for (int t = 0; t < ii; ++t) {
            type_vars.push_back(store.new_var(0, num_configs - 1));
        }
        // Channel: op i at residue t forces type_vars[t] = config(i).
        for (std::size_t a = 0; a < cfg.ops.size(); ++a) {
            const auto i = static_cast<std::size_t>(cfg.ops[a]);
            for (int t = 0; t < ii; ++t) {
                const cp::BoolVar here = store.new_bool();
                cp::post_reified_eq_const(store, here, residue[i], t);
                const cp::BoolVar is_cfg = store.new_bool();
                cp::post_reified_eq_const(store, is_cfg, type_vars[static_cast<std::size_t>(t)],
                                          cfg.config_of_op[a]);
                cp::post_implies(store, here, is_cfg);
            }
        }
        // R = number of cyclic adjacent changes.
        std::vector<cp::BoolVar> same;
        for (int t = 0; t < ii; ++t) {
            const cp::BoolVar b = store.new_bool();
            cp::post_reified_eq(store, b, type_vars[static_cast<std::size_t>(t)],
                                type_vars[static_cast<std::size_t>((t + 1) % ii)]);
            same.push_back(b);
        }
        const IntVar same_count = store.new_var(0, ii);
        cp::post_bool_sum(store, same, same_count);
        // Redundant lower bound: every configuration forms at least one
        // maximal block around the kernel, so with >= 2 configurations the
        // cyclic change count is at least the number of configurations.
        const int r_lower = num_configs >= 2 ? num_configs : 0;
        const int r_upper = std::min(ii, reconfig_budget);
        if (r_upper < r_lower) {
            ModuloModel out;
            out.residue = std::move(residue);
            out.stage = std::move(stage);
            out.infeasible = true;
            return out;
        }
        reconfig_count = store.new_var(r_lower, r_upper);
        cp::post_linear_eq(store, {{1, reconfig_count}, {1, same_count}}, ii);
    }

    // Phases: residues first (they define the kernel), then stages, then
    // configuration variables. When minimizing reconfigurations, branch the
    // residues grouped by configuration in input order: with min-value
    // selection, same-configuration operations pack into adjacent residues,
    // so the first incumbents already have few configuration changes.
    std::vector<int> op_order;
    for (const ir::Node& node : g.nodes()) {
        if (node.is_op()) op_order.push_back(node.id);
    }
    if (minimize_reconfigs) {
        // Vector-core groups first (they drive R), scalar / index-merge ops
        // last (any residue works for them via the stage variable).
        std::stable_sort(op_order.begin(), op_order.end(), [&](int a, int b) {
            const auto key = [&](int id) {
                const ir::Node& node = g.node(id);
                return ir::node_timing(spec, node).lanes > 0 ? ir::config_key(node)
                                                             : std::string("~");
            };
            return key(a) < key(b);
        });
    }
    std::vector<IntVar> residue_list;
    std::vector<IntVar> stage_list;
    for (const int id : op_order) {
        residue_list.push_back(residue[static_cast<std::size_t>(id)]);
        stage_list.push_back(stage[static_cast<std::size_t>(id)]);
    }
    std::vector<cp::Phase> phases;
    phases.push_back({residue_list,
                      minimize_reconfigs ? cp::VarSelect::InputOrder : cp::VarSelect::SmallestMin,
                      cp::ValSelect::Min, "residues"});
    phases.push_back({stage_list, cp::VarSelect::SmallestMin, cp::ValSelect::Min, "stages"});
    if (!type_vars.empty()) {
        phases.push_back({type_vars, cp::VarSelect::InputOrder, cp::ValSelect::Min, "configs"});
    }

    ModuloModel out;
    out.residue = std::move(residue);
    out.stage = std::move(stage);
    out.reconfig_count = reconfig_count;
    out.phases = std::move(phases);
    return out;
}

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
                                         const sched::VerifyOptions& options) {
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
    if (options.check_port_limits) {
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

    if (!options.check_memory) return problems;

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
