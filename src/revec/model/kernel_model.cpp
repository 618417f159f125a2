#include "revec/model/kernel_model.hpp"

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

}  // namespace revec::model
