#include "revec/model/kernel_model.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <map>

#include "revec/ir/analysis.hpp"
#include "revec/support/assert.hpp"

namespace revec::model {

KernelModel lower_ir(const arch::ArchSpec& spec, const ir::Graph& g,
                     const LowerOptions& options, int horizon,
                     std::optional<ModuloWrap> modulo) {
    KernelModel m;
    m.name = g.name();
    m.geometry = spec.memory;
    m.caps = MachineCaps{spec.vector_lanes,
                         spec.scalar_units,
                         spec.index_merge_units,
                         spec.max_vector_reads_per_cycle,
                         spec.max_vector_writes_per_cycle,
                         spec.reconfig_cycles};
    m.num_slots = options.num_slots < 0 ? spec.memory.slots() : options.num_slots;
    m.horizon = std::max(horizon, 0);  // the default is derive's critical path
    m.memory_allocation = options.memory_allocation;
    m.three_phase_search = options.three_phase_search;
    m.enforce_port_limits = options.enforce_port_limits;
    m.lifetime_includes_last_read = options.lifetime_includes_last_read;
    m.fixed_starts = options.fixed_starts;
    m.modulo = modulo;

    std::map<std::string, int> config_ids;
    m.nodes.resize(static_cast<std::size_t>(g.num_nodes()));
    for (const ir::Node& node : g.nodes()) {
        ModelNode& out = m.nodes[static_cast<std::size_t>(node.id)];
        out.id = node.id;
        out.cat = node.cat;
        out.op = node.op;
        const ir::NodeTiming t = ir::node_timing(spec, node);
        out.latency = t.latency;
        out.duration = t.duration;
        out.lanes = t.lanes;
        out.preds = g.preds(node.id);
        if (node.is_op()) {
            if (t.lanes > 0) {
                out.unit = Unit::VectorCore;
                const std::string key = ir::config_key(node);
                const auto [it, inserted] =
                    config_ids.emplace(key, static_cast<int>(config_ids.size()));
                if (inserted) m.config_keys.push_back(key);
                out.config = it->second;
            } else {
                out.unit = node.cat == ir::NodeCat::ScalarOp ? Unit::Scalar : Unit::IndexMerge;
            }
        } else {
            out.persists = g.succs(node.id).empty() || node.is_output;
        }
    }
    derive(m);
    if (horizon >= 0) return m;
    const int critical_path = m.critical_path;
    return with_horizon(std::move(m), critical_path);
}

namespace {

[[noreturn]] void underivable(const std::string& what) {
    throw Error("kernel model: " + what);
}

int ceil_div(int x, int k) { return (x + k - 1) / k; }

/// Per-node timing: asap and alap (against `m.horizon`) by one
/// topological walk over the derived succs, and the critical path.
/// Every start and bound derive_times computes lies within |horizon| + the
/// summed latencies of zero, so checking that sum once keeps the walk in
/// int.
void check_reach(const KernelModel& m) {
    long long reach = std::llabs(static_cast<long long>(m.horizon)) + 1;
    for (const ModelNode& node : m.nodes) {
        reach += std::llabs(static_cast<long long>(node.latency));
    }
    if (reach > INT_MAX) underivable("latencies and horizon overflow an int");
}

/// modulo->max_stage against the horizon.
void derive_max_stage(KernelModel& m) {
    if (!m.modulo.has_value()) return;
    if (m.modulo->ii <= 0) underivable("modulo ii must be positive");
    m.modulo->max_stage = m.horizon / m.modulo->ii + 1;
}

void derive_times(KernelModel& m) {
    const auto n = m.nodes.size();
    check_reach(m);

    std::vector<int> indegree(n);
    std::vector<int> order;
    order.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        indegree[v] = static_cast<int>(m.nodes[v].preds.size());
        if (indegree[v] == 0) order.push_back(static_cast<int>(v));
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
        for (const int s : m.node(order[head]).succs) {
            if (--indegree[static_cast<std::size_t>(s)] == 0) order.push_back(s);
        }
    }
    if (order.size() != n) underivable("preds form a cycle");

    m.asap.assign(n, 0);
    m.alap.assign(n, 0);
    m.critical_path = 0;
    for (const int v : order) {
        const ModelNode& node = m.node(v);
        int& start = m.asap[static_cast<std::size_t>(v)];
        for (const int p : node.preds) {
            start = std::max(start, m.asap[static_cast<std::size_t>(p)] + m.node(p).latency);
        }
        m.critical_path = std::max(m.critical_path, start + node.latency);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const ModelNode& node = m.node(*it);
        int latest = m.horizon - node.latency;
        for (const int s : node.succs) {
            latest = std::min(latest, m.alap[static_cast<std::size_t>(s)] - node.latency);
        }
        m.alap[static_cast<std::size_t>(*it)] = latest;
    }
}

}  // namespace

void derive(KernelModel& m) {
    const int n = m.num_nodes();
    for (ModelNode& node : m.nodes) {
        node.is_op = ir::is_op_cat(node.cat);
        node.is_vector_data = node.cat == ir::NodeCat::VectorData;
        node.succs.clear();
        for (const int p : node.preds) {
            if (p < 0 || p >= n) underivable("preds id out of range");
        }
    }
    // The graph is bipartite and a data node has at most one producer: the
    // edge kinds (eqs. 1 and 4) are defined for nothing else.
    for (const ModelNode& node : m.nodes) {
        if (!node.is_op && node.preds.size() > 1) underivable("a data node has two producers");
        for (const int p : node.preds) {
            if (p == node.id) underivable("preds form a cycle");
            ModelNode& pred = m.nodes[static_cast<std::size_t>(p)];
            if (pred.is_op == node.is_op) underivable("an edge joins two nodes of one kind");
            pred.succs.push_back(node.id);
        }
    }

    m.ops.clear();
    m.vector_ops.clear();
    m.vdata.clear();
    m.inputs.clear();
    m.edges.clear();
    for (ModelNode& node : m.nodes) {
        node.vector_inputs.clear();
        node.vector_outputs.clear();
        node.is_input = false;
        node.lifetime_extra = 0;
        if (node.is_op) {
            node.persists = false;
            m.ops.push_back(node.id);
            if (node.unit == Unit::VectorCore) m.vector_ops.push_back(node.id);
            for (const int p : node.preds) {
                if (m.node(p).is_vector_data) node.vector_inputs.push_back(p);
            }
            for (const int s : node.succs) {
                if (m.node(s).is_vector_data) node.vector_outputs.push_back(s);
            }
        } else {
            node.is_input = node.preds.empty();
            if (node.is_input) m.inputs.push_back(node.id);
            if (node.is_vector_data) m.vdata.push_back(node.id);
            // Lifetime endpoints (eq. 10 with the executable extensions):
            // sinks and program outputs persist one cycle past the schedule
            // end; a preloaded input occupies its slot through the last read
            // even under the paper-literal lifetime definition.
            int extra = m.lifetime_includes_last_read ? 1 : 0;
            if (node.persists) {
                extra += 1;
            } else if (node.is_input && extra == 0) {
                extra = 1;
            }
            node.lifetime_extra = extra;
        }
        for (const int s : node.succs) {
            m.edges.push_back(ModelEdge{node.id, s, node.latency,
                                        m.node(s).is_op ? EdgeKind::Precedence
                                                        : EdgeKind::DataProduce});
        }
    }

    derive_times(m);
    derive_max_stage(m);
}

KernelModel with_horizon(KernelModel m, int horizon) {
    REVEC_EXPECTS(horizon >= m.critical_path);
    // Each ALAP entry is the horizon minus the longest path from its node
    // to the end, so a horizon change moves every entry by the delta.
    const int delta = horizon - m.horizon;
    m.horizon = horizon;
    check_reach(m);
    for (int& t : m.alap) t += delta;
    derive_max_stage(m);
    return m;
}

KernelModel with_modulo(KernelModel m, int horizon, ModuloWrap wrap) {
    m.modulo = wrap;
    return with_horizon(std::move(m), horizon);
}

int modulo_ii_lower_bound(const KernelModel& m) {
    REVEC_EXPECTS(m.caps.vector_lanes > 0 && m.caps.scalar_units > 0 &&
                  m.caps.index_merge_units > 0);
    std::vector<int> lanes(m.config_keys.size(), 0);  // per configuration id
    for (const int op : m.vector_ops) {
        lanes[static_cast<std::size_t>(m.node(op).config)] += m.node(op).lanes;
    }
    int scalar_ops = 0;
    int ix_ops = 0;
    for (const int op : m.ops) {
        const Unit unit = m.node(op).unit;
        if (unit == Unit::Scalar) ++scalar_ops;
        if (unit == Unit::IndexMerge) ++ix_ops;
    }
    int vec_bound = 0;
    for (const int demand : lanes) vec_bound += ceil_div(demand, m.caps.vector_lanes);
    return std::max({1, vec_bound, ceil_div(scalar_ops, m.caps.scalar_units),
                     ceil_div(ix_ops, m.caps.index_merge_units)});
}

int modulo_reconfig_floor(const KernelModel& m) {
    const int configs = static_cast<int>(m.config_keys.size());
    return configs >= 2 ? configs : 0;
}

namespace {

/// One op of a unit as the resource terms see it.
struct Job {
    int head = 0;
    int tail = 0;
    int duration = 0;
    int lanes = 0;
    int config = -1;
};

/// max over a in the heads and b in the tails of
///   a + busy({head >= a, tail >= b}) + b,
/// where `busy` is fed the jobs of the set one at a time. Walking the jobs
/// by descending tail grows the set for a fixed a, so b is the tail of the
/// job just added: O(n) per head, O(n^2) in all.
template <typename Busy>
int resource_term(std::vector<Job> jobs, Busy busy) {
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const Job& x, const Job& y) { return x.tail > y.tail; });
    std::vector<int> heads;
    for (const Job& j : jobs) heads.push_back(j.head);
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());

    int best = 0;
    for (const int a : heads) {
        busy.reset();
        for (const Job& j : jobs) {
            if (j.head < a) continue;
            best = std::max(best, a + busy.add(j) + j.tail);
        }
    }
    return best;
}

/// ceil(sum of duration * lanes / capacity): the area form, lanes = 1 for
/// the scalar and index/merge units.
struct AreaBusy {
    int capacity = 1;
    int area = 0;
    void reset() { area = 0; }
    int add(const Job& j) {
        area += j.duration * std::max(j.lanes, 1);
        return ceil_div(area, capacity);
    }
};

/// Sum over configurations of ceil(lanes / vector lanes), kept
/// incrementally: valid when every duration is 1.
struct ConfigBusy {
    int capacity = 1;
    std::vector<int> lanes;  ///< per configuration id
    int cycles = 0;
    void reset() {
        std::fill(lanes.begin(), lanes.end(), 0);
        cycles = 0;
    }
    int add(const Job& j) {
        int& c = lanes[static_cast<std::size_t>(j.config)];
        cycles += ceil_div(c + j.lanes, capacity) - ceil_div(c, capacity);
        c += j.lanes;
        return cycles;
    }
};

}  // namespace

int MakespanBound::value() const {
    return std::max({critical_path, scalar, index_merge, vector_core});
}

MakespanBound makespan_lower_bound(const KernelModel& m) {
    std::vector<Job> scalar;
    std::vector<Job> index_merge;
    std::vector<Job> vector_core;
    bool unit_vector_durations = true;
    for (const int op : m.ops) {
        const ModelNode& node = m.node(op);
        const auto i = static_cast<std::size_t>(op);
        const Job job{m.asap[i], m.horizon - m.alap[i] - node.duration, node.duration,
                      node.lanes, node.config};
        switch (node.unit) {
            case Unit::Scalar: scalar.push_back(job); break;
            case Unit::IndexMerge: index_merge.push_back(job); break;
            case Unit::VectorCore:
                vector_core.push_back(job);
                unit_vector_durations = unit_vector_durations && node.duration == 1;
                break;
            case Unit::None: break;
        }
    }

    MakespanBound out;
    out.critical_path = m.critical_path;
    if (m.caps.scalar_units > 0) {
        out.scalar = resource_term(std::move(scalar), AreaBusy{m.caps.scalar_units});
    }
    if (m.caps.index_merge_units > 0) {
        out.index_merge =
            resource_term(std::move(index_merge), AreaBusy{m.caps.index_merge_units});
    }
    if (m.caps.vector_lanes > 0) {
        out.vector_core =
            unit_vector_durations
                ? resource_term(std::move(vector_core),
                                ConfigBusy{m.caps.vector_lanes,
                                           std::vector<int>(m.config_keys.size(), 0)})
                : resource_term(std::move(vector_core), AreaBusy{m.caps.vector_lanes});
    }
    return out;
}

}  // namespace revec::model
