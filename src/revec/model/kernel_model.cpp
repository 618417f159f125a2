#include "revec/model/kernel_model.hpp"

#include <algorithm>
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
    m.critical_path = ir::critical_path_length(spec, g);
    m.horizon = horizon < 0 ? m.critical_path : horizon;
    m.asap = ir::asap_times(spec, g);
    m.alap = ir::alap_times(spec, g, m.horizon);
    m.memory_allocation = options.memory_allocation;
    m.three_phase_search = options.three_phase_search;
    m.enforce_port_limits = options.enforce_port_limits;
    m.lifetime_includes_last_read = options.lifetime_includes_last_read;
    m.fixed_starts = options.fixed_starts;

    std::map<std::string, int> config_ids;
    m.nodes.resize(static_cast<std::size_t>(g.num_nodes()));
    for (const ir::Node& node : g.nodes()) {
        ModelNode& out = m.nodes[static_cast<std::size_t>(node.id)];
        out.id = node.id;
        out.is_op = node.is_op();
        out.is_vector_data = node.cat == ir::NodeCat::VectorData;
        out.cat = std::string(ir::cat_name(node.cat));
        out.op = node.op;
        const ir::NodeTiming t = ir::node_timing(spec, node);
        out.latency = t.latency;
        out.duration = t.duration;
        out.lanes = t.lanes;
        out.preds = g.preds(node.id);
        out.succs = g.succs(node.id);

        if (out.is_op) {
            if (t.lanes > 0) {
                out.unit = Unit::VectorCore;
                const std::string key = ir::config_key(node);
                const auto [it, inserted] =
                    config_ids.emplace(key, static_cast<int>(config_ids.size()));
                if (inserted) m.config_keys.push_back(key);
                out.config = it->second;
                m.vector_ops.push_back(node.id);
            } else if (node.cat == ir::NodeCat::ScalarOp) {
                out.unit = Unit::Scalar;
            } else {
                out.unit = Unit::IndexMerge;
            }
            m.ops.push_back(node.id);
            for (const int p : out.preds) {
                if (g.node(p).cat == ir::NodeCat::VectorData) out.vector_inputs.push_back(p);
            }
            for (const int s : out.succs) {
                if (g.node(s).cat == ir::NodeCat::VectorData) out.vector_outputs.push_back(s);
            }
        } else {
            out.is_input = out.preds.empty();
            if (out.is_input) m.inputs.push_back(node.id);
            if (out.is_vector_data) m.vdata.push_back(node.id);
            // Lifetime endpoints (eq. 10 with the executable extensions):
            // sinks and program outputs persist one cycle past the schedule
            // end; a preloaded input occupies its slot through the last read
            // even under the paper-literal lifetime definition.
            out.persists = out.succs.empty() || node.is_output;
            int extra = options.lifetime_includes_last_read ? 1 : 0;
            if (out.persists) {
                extra += 1;
            } else if (out.is_input && extra == 0) {
                extra = 1;
            }
            out.lifetime_extra = extra;
        }

        for (const int succ : out.succs) {
            m.edges.push_back(ModelEdge{node.id, succ, t.latency,
                                        g.node(succ).is_data() ? EdgeKind::DataProduce
                                                               : EdgeKind::Precedence});
        }
    }

    if (modulo.has_value()) {
        REVEC_EXPECTS(modulo->ii > 0);
        modulo->max_stage = m.horizon / modulo->ii + 1;
        m.modulo = modulo;
    }
    return m;
}

KernelModel with_horizon(const KernelModel& m, int horizon) {
    REVEC_EXPECTS(horizon >= m.critical_path);
    KernelModel out = m;
    const int delta = horizon - m.horizon;
    out.horizon = horizon;
    for (int& t : out.alap) t += delta;
    if (out.modulo.has_value()) {
        out.modulo->max_stage = out.horizon / out.modulo->ii + 1;
    }
    return out;
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

int ceil_div(int x, int k) { return (x + k - 1) / k; }

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
