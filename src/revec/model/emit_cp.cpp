#include "revec/model/emit_cp.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "revec/cp/access_groups.hpp"
#include "revec/cp/arith.hpp"
#include "revec/cp/config_slots.hpp"
#include "revec/cp/count.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/diff2.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/reified.hpp"
#include "revec/support/assert.hpp"

namespace revec::model {

namespace {

using cp::IntVar;

/// Eq. 3 over `items`, posted only where two configurations can clash.
void post_one_config_per_slot(cp::Store& store, cp::ConfigSlots items) {
    const auto [lo, hi] = std::minmax_element(items.config.begin(), items.config.end());
    if (lo != items.config.end() && *lo != *hi) cp::post_config_slots(store, std::move(items));
}

/// The flat §3.3-§3.5 model: start times tightened by ASAP/ALAP, the
/// makespan objective over completions (eq. 5), precedence and data-start
/// edges (eqs. 1/4), unit capacities (eq. 2), one configuration per cycle
/// (eq. 3), the memory-port extension, and the memory allocation block
/// (eqs. 6-11) with the redundant live-data cumulative.
VarTable emit_flat(cp::Store& store, const KernelModel& m) {
    const int n = m.num_nodes();
    const int horizon = m.horizon;

    // -- start-time variables, tightened by ASAP/ALAP ------------------------
    std::vector<IntVar> start(static_cast<std::size_t>(n));
    for (const ModelNode& node : m.nodes) {
        const auto i = static_cast<std::size_t>(node.id);
        start[i] = store.new_var(m.asap[i], m.alap[i], "s" + std::to_string(node.id));
    }

    // Inputs are ready from the start (paper: "any data node without any
    // predecessors gets the start time zero").
    for (const int d : m.inputs) store.assign(start[static_cast<std::size_t>(d)], 0);

    // Slot-only mode: pin every start to the supplied schedule.
    if (!m.fixed_starts.empty()) {
        if (m.fixed_starts.size() != static_cast<std::size_t>(n)) {
            throw Error("fixed_starts must supply one start per node");
        }
        for (const ModelNode& node : m.nodes) {
            const auto i = static_cast<std::size_t>(node.id);
            if (!store.assign(start[i], m.fixed_starts[i])) {
                throw Error("fixed start " + std::to_string(m.fixed_starts[i]) +
                            " for node " + std::to_string(node.id) +
                            " conflicts with the model bounds");
            }
        }
    }

    // LNS repair mode: pin the frozen subset of starts to the incumbent.
    // Plain assignments only — the variable set stays identical to the
    // unfrozen emission, so a repair solve's assignment vector indexes any
    // other emission of the same base model.
    if (!m.frozen_starts.empty()) {
        if (m.frozen_starts.size() != static_cast<std::size_t>(n)) {
            throw Error("frozen_starts must supply one entry per node");
        }
        for (const ModelNode& node : m.nodes) {
            const auto i = static_cast<std::size_t>(node.id);
            const int v = m.frozen_starts[i];
            if (v < 0) continue;
            if (!store.assign(start[i], v)) {
                // An incumbent start outside the subproblem bounds (e.g. a
                // tightened horizon): report infeasible so the LNS round is
                // rejected, instead of throwing like fixed_starts does.
                VarTable out;
                out.start = std::move(start);
                out.infeasible = true;
                return out;
            }
        }
    }

    // -- objective: latest completion (eq. 5) ---------------------------------
    const IntVar obj = store.new_var(0, horizon, "makespan");
    std::vector<IntVar> completions;
    for (const ModelNode& node : m.nodes) {
        const auto i = static_cast<std::size_t>(node.id);
        if (node.latency == 0) {
            completions.push_back(start[i]);
        } else {
            const IntVar c = store.new_var(0, horizon, "c" + std::to_string(node.id));
            cp::post_eq_offset(store, start[i], node.latency, c);
            completions.push_back(c);
        }
    }
    cp::post_max(store, obj, completions);

    // -- precedence (eq. 1) and data-node starts (eq. 4) ----------------------
    for (const ModelEdge& e : m.edges) {
        const auto i = static_cast<std::size_t>(e.src);
        const auto j = static_cast<std::size_t>(e.dst);
        if (e.kind == EdgeKind::DataProduce) {
            // eq. (4): a produced data node starts exactly when its
            // producer's latency has elapsed (implies eq. 1).
            cp::post_eq_offset(store, start[i], e.latency, start[j]);
        } else {
            cp::post_leq_offset(store, start[i], e.latency, start[j]);
        }
    }

    // -- resource constraints (eq. 2 + the scalar and index/merge units) ------
    std::vector<cp::CumulTask> lane_tasks;
    std::vector<cp::CumulTask> scalar_tasks;
    std::vector<cp::CumulTask> ixmerge_tasks;
    for (const int op : m.ops) {
        const ModelNode& node = m.node(op);
        const auto i = static_cast<std::size_t>(op);
        if (node.lanes > 0) {
            lane_tasks.push_back({start[i], node.duration, node.lanes});
        } else if (node.unit == Unit::Scalar) {
            scalar_tasks.push_back({start[i], node.duration, 1});
        } else {
            ixmerge_tasks.push_back({start[i], node.duration, 1});
        }
    }
    if (!lane_tasks.empty()) cp::post_cumulative(store, lane_tasks, m.caps.vector_lanes);
    if (!scalar_tasks.empty()) cp::post_cumulative(store, scalar_tasks, m.caps.scalar_units);
    if (!ixmerge_tasks.empty()) {
        cp::post_cumulative(store, ixmerge_tasks, m.caps.index_merge_units);
    }

    // Physical memory-port limits (beyond the paper's model): vector-core
    // reads happen at issue time; vector writes land at the producer's
    // completion.
    if (m.enforce_port_limits) {
        std::vector<cp::CumulTask> read_tasks;
        std::vector<cp::CumulTask> write_tasks;
        for (const int op : m.ops) {
            const ModelNode& node = m.node(op);
            const auto i = static_cast<std::size_t>(op);
            if (node.lanes > 0) {
                const int reads = static_cast<int>(node.vector_inputs.size());
                if (reads > 0) read_tasks.push_back({start[i], 1, reads});
            }
            const int writes = static_cast<int>(node.vector_outputs.size());
            if (writes > 0) {
                // completions[i] exists for every op (latency > 0).
                write_tasks.push_back({completions[i], 1, writes});
            }
        }
        if (!read_tasks.empty()) {
            cp::post_cumulative(store, read_tasks, m.caps.max_vector_reads);
        }
        if (!write_tasks.empty()) {
            cp::post_cumulative(store, write_tasks, m.caps.max_vector_writes);
        }
    }

    // -- one configuration per cycle (eq. 3) -----------------------------------
    // Only single-lane (vector) ops need it: any pair involving a matrix op
    // is already excluded by the lane Cumulative.
    cp::ConfigSlots eq3;
    for (const int op : m.vector_ops) {
        const ModelNode& node = m.node(op);
        if (node.lanes < m.caps.vector_lanes) {
            eq3.add(start[static_cast<std::size_t>(op)], node.config);
        }
    }
    post_one_config_per_slot(store, std::move(eq3));

    // -- memory allocation (eqs. 6-11) ------------------------------------------
    std::vector<IntVar> slot_vars;  // parallel to m.vdata
    std::map<int, IntVar> slot_of;  // node id -> slot var

    if (m.memory_allocation) {
        const int num_slots = m.num_slots;
        REVEC_EXPECTS(num_slots > 0 || m.vdata.empty());  // checked by the callers
        const arch::MemoryGeometry geom = m.geometry;
        const int max_line = geom.line_of(num_slots - 1);
        const int max_page = geom.pages() - 1;

        std::vector<IntVar> lifetimes;
        std::vector<cp::Rect> rects;
        cp::AccessGroups groups;
        std::vector<int> vdata_index(static_cast<std::size_t>(n), -1);  // node id -> datum
        for (const int d : m.vdata) {
            const auto i = static_cast<std::size_t>(d);
            const IntVar slot = store.new_var(0, num_slots - 1, "slot" + std::to_string(d));
            const IntVar line = store.new_var(0, max_line, "line" + std::to_string(d));
            const IntVar page = store.new_var(0, max_page, "page" + std::to_string(d));
            // eq. (6): channel the three views of the placement.
            cp::post_unary_fun(store, slot, line,
                               [geom](int s) { return geom.line_of(s); },
                               "line=slot/banks");
            cp::post_unary_fun(store, slot, page,
                               [geom](int s) { return geom.page_of(s); },
                               "page=(slot mod banks)/pageSize");
            slot_vars.push_back(slot);
            slot_of.emplace(d, slot);
            vdata_index[i] = static_cast<int>(groups.page.size());
            groups.page.push_back(page);
            groups.line.push_back(line);

            // eq. (10): lifetime = max(successor starts) - own start. Sinks
            // and program outputs stay live until one cycle past the
            // makespan — an output produced exactly at the makespan must
            // still be in memory when the program ends.
            const ModelNode& dn = m.node(d);
            std::vector<IntVar> users;
            for (const int succ : dn.succs) {
                users.push_back(start[static_cast<std::size_t>(succ)]);
            }
            if (dn.persists) users.push_back(obj);
            const IntVar last_use = store.new_var(0, horizon + 1, "use" + std::to_string(d));
            cp::post_max(store, last_use, users);
            const IntVar life = store.new_var(0, horizon + 1, "life" + std::to_string(d));
            // life = last_use - start + lifetime_extra
            cp::post_linear_eq(store, {{1, life}, {-1, last_use}, {1, start[i]}},
                               dn.lifetime_extra);
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
            for (std::size_t k = 0; k < m.vdata.size(); ++k) {
                const auto i = static_cast<std::size_t>(m.vdata[k]);
                live_tasks.push_back(cp::CumulTask{start[i], 0, 1, lifetimes[k]});
            }
            cp::post_cumulative(store, live_tasks, num_slots);
        }

        // eqs. (7)-(9): data accessed together share page and line
        // descriptors. Eq. (8) pairs only ops whose lanes fit side by side
        // (a matrix op never shares a cycle). Eq. (9) is generalized: the
        // paper groups writes by issue time over vector-core ops only, which
        // leaves a hole our simulator caught — a merge-unit write (1-cycle
        // latency) can land together with a vector-core write (7-cycle
        // latency) from an earlier issue. We group by completion time
        // across every vector-writing unit.
        const auto index_of = [&vdata_index](const std::vector<int>& ids) {
            std::vector<int> out;
            for (const int d : ids) out.push_back(vdata_index[static_cast<std::size_t>(d)]);
            return out;
        };
        groups.issue.lane_cap = m.caps.vector_lanes;
        for (const int op : m.vector_ops) {
            const ModelNode& node = m.node(op);
            const std::vector<int> ins = index_of(node.vector_inputs);
            groups.operands.add(ins);
            groups.issue.add(start[static_cast<std::size_t>(op)], node.lanes, ins);
        }
        for (const int op : m.ops) {
            const ModelNode& node = m.node(op);
            if (node.vector_outputs.empty()) continue;
            groups.landing.add(completions[static_cast<std::size_t>(op)], 0,
                               index_of(node.vector_outputs));
        }
        cp::post_access_groups(store, std::move(groups));
    }

    // -- search phases (§3.5) ----------------------------------------------------
    std::vector<IntVar> op_starts;
    std::vector<IntVar> data_starts;
    for (const ModelNode& node : m.nodes) {
        (node.is_op ? op_starts : data_starts)
            .push_back(start[static_cast<std::size_t>(node.id)]);
    }

    std::vector<cp::Phase> phases;
    if (m.three_phase_search) {
        phases.push_back({op_starts, cp::VarSelect::MinDomain, cp::ValSelect::Min, "ops"});
        phases.push_back({data_starts, cp::VarSelect::SmallestMin, cp::ValSelect::Min, "data"});
        phases.push_back({slot_vars, cp::VarSelect::InputOrder, cp::ValSelect::Min, "slots"});
    } else {
        std::vector<IntVar> all = op_starts;
        all.insert(all.end(), data_starts.begin(), data_starts.end());
        all.insert(all.end(), slot_vars.begin(), slot_vars.end());
        phases.push_back({all, cp::VarSelect::MinDomain, cp::ValSelect::Min, "all"});
    }

    VarTable out;
    out.start = std::move(start);
    out.slot_of = std::move(slot_of);
    out.makespan = obj;
    out.phases = std::move(phases);
    return out;
}

/// The §4.3 modulo model: per-op start / residue / stage triples channeled
/// by s = II*k + m, kernel resource cumulatives over the residues, the
/// modulo form of eq. 3, and optionally the cyclic reconfiguration count R
/// with its per-residue configuration variables.
VarTable emit_modulo(cp::Store& store, const KernelModel& m) {
    const ModuloWrap& wrap = *m.modulo;
    const int ii = wrap.ii;
    const int horizon = m.horizon;
    const int n = m.num_nodes();

    // Redundant bounds on R: at least modulo_reconfig_floor, at most one
    // change per residue and the budget. A contradiction is known before
    // any variable exists.
    const bool minimize = wrap.minimize_reconfigs && !m.vector_ops.empty();
    const int r_lower = modulo_reconfig_floor(m);
    const int r_upper = std::min(ii, wrap.reconfig_budget);
    if (minimize && r_upper < r_lower) {
        VarTable out;
        out.infeasible = true;
        return out;
    }

    std::vector<IntVar> start(static_cast<std::size_t>(n));
    std::vector<IntVar> residue(static_cast<std::size_t>(n));
    std::vector<IntVar> stage(static_cast<std::size_t>(n));
    const int max_stage = wrap.max_stage;

    for (const ModelNode& node : m.nodes) {
        const auto i = static_cast<std::size_t>(node.id);
        start[i] = store.new_var(m.asap[i], horizon, "s" + std::to_string(node.id));
        if (!node.is_op) continue;
        residue[i] = store.new_var(0, ii - 1, "m" + std::to_string(node.id));
        stage[i] = store.new_var(0, max_stage, "k" + std::to_string(node.id));
        // s = II * k + m
        cp::post_linear_eq(store, {{1, start[i]}, {-ii, stage[i]}, {-1, residue[i]}}, 0);
    }

    // Inputs at 0; data nodes follow eq. 4; precedence otherwise.
    for (const int d : m.inputs) store.assign(start[static_cast<std::size_t>(d)], 0);
    for (const ModelEdge& e : m.edges) {
        const auto i = static_cast<std::size_t>(e.src);
        const auto j = static_cast<std::size_t>(e.dst);
        if (e.kind == EdgeKind::DataProduce) {
            cp::post_eq_offset(store, start[i], e.latency, start[j]);
        } else {
            cp::post_leq_offset(store, start[i], e.latency, start[j]);
        }
    }

    // Kernel resource constraints on the residues.
    std::vector<cp::CumulTask> lane_tasks;
    std::vector<cp::CumulTask> scalar_tasks;
    std::vector<cp::CumulTask> ix_tasks;
    for (const int op : m.ops) {
        const ModelNode& node = m.node(op);
        const auto i = static_cast<std::size_t>(op);
        if (node.lanes > 0) {
            lane_tasks.push_back({residue[i], node.duration, node.lanes});
        } else if (node.unit == Unit::Scalar) {
            scalar_tasks.push_back({residue[i], node.duration, 1});
        } else {
            ix_tasks.push_back({residue[i], node.duration, 1});
        }
    }
    if (!lane_tasks.empty()) cp::post_cumulative(store, lane_tasks, m.caps.vector_lanes);
    if (!scalar_tasks.empty()) cp::post_cumulative(store, scalar_tasks, m.caps.scalar_units);
    if (!ix_tasks.empty()) cp::post_cumulative(store, ix_tasks, m.caps.index_merge_units);

    IntVar reconfig_count;
    std::vector<IntVar> type_vars;
    if (minimize) {
        const int num_configs = static_cast<int>(m.config_keys.size());
        // Per-residue configuration variable. Unoccupied residues take any
        // value; letting them interpolate matches the semantics that nop
        // cycles keep the previous configuration loaded.
        for (int t = 0; t < ii; ++t) {
            type_vars.push_back(store.new_var(0, num_configs - 1, "cfg" + std::to_string(t)));
        }
        // R = number of cyclic adjacent changes.
        std::vector<cp::BoolVar> same;
        for (int t = 0; t < ii; ++t) {
            const cp::BoolVar b = store.new_bool();
            cp::post_reified_eq(store, b, type_vars[static_cast<std::size_t>(t)],
                                type_vars[static_cast<std::size_t>((t + 1) % ii)]);
            same.push_back(b);
        }
        const IntVar same_count = store.new_var(0, ii, "same_count");
        cp::post_bool_sum(store, same, same_count);
        reconfig_count = store.new_var(r_lower, r_upper, "reconfigs");
        cp::post_linear_eq(store, {{1, reconfig_count}, {1, same_count}}, ii);
    }

    // One configuration per residue (eq. 3 in modulo form), channeled to
    // the per-residue configuration variables when minimizing R.
    cp::ConfigSlots eq3;
    for (const int op : m.vector_ops) {
        eq3.add(residue[static_cast<std::size_t>(op)], m.node(op).config);
    }
    eq3.slot = type_vars;
    post_one_config_per_slot(store, std::move(eq3));

    // Phases: residues first (they define the kernel), then stages, then
    // configuration variables. When minimizing reconfigurations, branch the
    // residues grouped by configuration in input order: with min-value
    // selection, same-configuration operations pack into adjacent residues,
    // so the first incumbents already have few configuration changes.
    std::vector<int> op_order = m.ops;
    if (wrap.minimize_reconfigs) {
        // Vector-core groups first (they drive R), scalar / index-merge ops
        // last (any residue works for them via the stage variable).
        std::stable_sort(op_order.begin(), op_order.end(), [&](int a, int b) {
            const auto key = [&](int id) {
                const ModelNode& node = m.node(id);
                return node.lanes > 0 ? m.config_keys[static_cast<std::size_t>(node.config)]
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
                      wrap.minimize_reconfigs ? cp::VarSelect::InputOrder
                                              : cp::VarSelect::SmallestMin,
                      cp::ValSelect::Min, "residues"});
    phases.push_back({stage_list, cp::VarSelect::SmallestMin, cp::ValSelect::Min, "stages"});
    if (!type_vars.empty()) {
        phases.push_back({type_vars, cp::VarSelect::InputOrder, cp::ValSelect::Min, "configs"});
    }

    VarTable out;
    out.start = std::move(start);
    out.residue = std::move(residue);
    out.stage = std::move(stage);
    out.reconfig_count = reconfig_count;
    out.phases = std::move(phases);
    return out;
}

}  // namespace

VarTable emit_cp(cp::Store& store, const KernelModel& m) {
    return m.modulo.has_value() ? emit_modulo(store, m) : emit_flat(store, m);
}

}  // namespace revec::model
