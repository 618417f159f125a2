#include "revec/pipeline/expand.hpp"

#include <algorithm>

#include "revec/ir/analysis.hpp"
#include "revec/support/assert.hpp"

namespace revec::pipeline {

namespace {

/// Copy node `n` into `out` (ids shift uniformly per iteration).
void copy_node(const ir::Node& n, ir::Graph& out, int iteration) {
    const std::string suffix = "#" + std::to_string(iteration);
    if (n.is_data()) {
        const int id = out.add_data(n.cat, n.label.empty() ? "" : n.label + suffix);
        ir::Node& copy = out.node(id);
        copy.is_output = n.is_output;
        copy.imm = n.imm;
        if (n.input_value.has_value()) {
            ir::Value v = *n.input_value;
            const double scale = 1.0 + 0.125 * iteration;
            for (auto& e : v.elems) e *= scale;
            copy.input_value = v;
        }
    } else {
        const int id = out.add_op(n.cat, n.op, n.label.empty() ? "" : n.label + suffix);
        ir::Node& copy = out.node(id);
        copy.pre_op = n.pre_op;
        copy.pre_arg = n.pre_arg;
        copy.post_op = n.post_op;
        copy.imm = n.imm;
    }
}

/// Common finishing: compute makespan/slots_used and mark feasible.
void finish(const arch::ArchSpec& spec, ExpandedProgram& ep) {
    int makespan = 0;
    std::vector<char> slot_seen;
    int slots_used = 0;
    for (const ir::Node& n : ep.graph.nodes()) {
        const ir::NodeTiming t = ir::node_timing(spec, n);
        makespan = std::max(makespan,
                            ep.schedule.start[static_cast<std::size_t>(n.id)] + t.latency);
        const int slot = ep.schedule.slot[static_cast<std::size_t>(n.id)];
        if (slot >= 0) {
            if (slot >= static_cast<int>(slot_seen.size())) {
                slot_seen.resize(static_cast<std::size_t>(slot) + 1, 0);
            }
            if (!slot_seen[static_cast<std::size_t>(slot)]) {
                slot_seen[static_cast<std::size_t>(slot)] = 1;
                ++slots_used;
            }
        }
    }
    ep.schedule.makespan = makespan;
    ep.schedule.slots_used = slots_used;
    ep.schedule.status = cp::SolveStatus::Optimal;
}

}  // namespace

ir::Graph replicate_graph(const ir::Graph& g, int iterations) {
    REVEC_EXPECTS(iterations >= 1);
    ir::Graph out(g.name() + "_x" + std::to_string(iterations));
    for (int m = 0; m < iterations; ++m) {
        for (const ir::Node& n : g.nodes()) copy_node(n, out, m);
        const int base = m * g.num_nodes();
        for (const ir::Node& n : g.nodes()) {
            for (const int p : g.preds(n.id)) out.add_edge(base + p, base + n.id);
        }
    }
    return out;
}

ExpandedProgram expand_uniform(const arch::ArchSpec& spec, const ir::Graph& g,
                               const sched::Schedule& single, int iterations, int delta,
                               int slot_stride) {
    REVEC_EXPECTS(iterations >= 1);
    REVEC_EXPECTS(delta >= 1);
    if (!single.feasible()) throw Error("cannot expand an infeasible schedule");

    ExpandedProgram ep;
    ep.iterations = iterations;
    ep.stride_nodes = g.num_nodes();
    ep.graph = replicate_graph(g, iterations);
    const int total = ep.graph.num_nodes();
    ep.schedule.start.assign(static_cast<std::size_t>(total), 0);
    ep.schedule.slot.assign(static_cast<std::size_t>(total), -1);

    for (int m = 0; m < iterations; ++m) {
        for (const ir::Node& n : g.nodes()) {
            const int id = ep.node_of(m, n.id);
            // Program inputs are preloaded and available from cycle 0 for
            // every iteration; everything else shifts by m*delta.
            const bool is_input = n.is_data() && g.preds(n.id).empty();
            ep.schedule.start[static_cast<std::size_t>(id)] =
                is_input ? 0 : single.start[static_cast<std::size_t>(n.id)] + m * delta;
            if (slot_stride >= 0) {
                const int slot = single.slot[static_cast<std::size_t>(n.id)];
                if (slot >= 0) {
                    const int placed = slot + m * slot_stride;
                    if (placed >= spec.memory.slots()) {
                        throw Error("iteration " + std::to_string(m) + " slot " +
                                    std::to_string(placed) + " exceeds the memory (" +
                                    std::to_string(spec.memory.slots()) + " slots)");
                    }
                    ep.schedule.slot[static_cast<std::size_t>(id)] = placed;
                }
            }
        }
    }
    finish(spec, ep);
    return ep;
}

ExpandedProgram expand_overlap(const arch::ArchSpec& spec, const ir::Graph& g,
                               const IterationSequence& seq, const OverlapResult& overlap) {
    REVEC_EXPECTS(overlap.iterations >= 1);
    REVEC_EXPECTS(overlap.block_base.size() == seq.slots.size());

    // Instruction position of each op.
    std::vector<int> position(static_cast<std::size_t>(g.num_nodes()), -1);
    for (std::size_t k = 0; k < seq.slots.size(); ++k) {
        for (const int op : seq.slots[k].ops) {
            position[static_cast<std::size_t>(op)] = static_cast<int>(k);
        }
    }

    ExpandedProgram ep;
    ep.iterations = overlap.iterations;
    ep.stride_nodes = g.num_nodes();
    ep.graph = replicate_graph(g, overlap.iterations);
    const int total = ep.graph.num_nodes();
    ep.schedule.start.assign(static_cast<std::size_t>(total), 0);
    ep.schedule.slot.assign(static_cast<std::size_t>(total), -1);

    for (int m = 0; m < overlap.iterations; ++m) {
        // Op starts from the block bases; data starts follow eq. (4).
        for (const ir::Node& n : g.nodes()) {
            if (!n.is_op()) continue;
            const int k = position[static_cast<std::size_t>(n.id)];
            REVEC_ASSERT(k >= 0);
            const int at = overlap.block_base[static_cast<std::size_t>(k)] + m;
            const int id = ep.node_of(m, n.id);
            ep.schedule.start[static_cast<std::size_t>(id)] = at;
            const int latency = ir::node_timing(spec, n).latency;
            for (const int d : g.succs(n.id)) {
                ep.schedule.start[static_cast<std::size_t>(ep.node_of(m, d))] = at + latency;
            }
        }
    }
    finish(spec, ep);
    return ep;
}

ExpandedProgram expand_modulo(const arch::ArchSpec& spec, const ir::Graph& g,
                              const ModuloResult& modulo, int iterations) {
    REVEC_EXPECTS(iterations >= 1);
    if (!modulo.feasible()) throw Error("cannot expand an infeasible modulo schedule");
    const int ii = modulo.initial_ii;

    ExpandedProgram ep;
    ep.iterations = iterations;
    ep.stride_nodes = g.num_nodes();
    ep.graph = replicate_graph(g, iterations);
    const int total = ep.graph.num_nodes();
    ep.schedule.start.assign(static_cast<std::size_t>(total), 0);
    ep.schedule.slot.assign(static_cast<std::size_t>(total), -1);

    for (int m = 0; m < iterations; ++m) {
        for (const ir::Node& n : g.nodes()) {
            if (!n.is_op()) continue;
            const auto i = static_cast<std::size_t>(n.id);
            const int at = modulo.stage[i] * ii + modulo.residue[i] + m * ii;
            const int id = ep.node_of(m, n.id);
            ep.schedule.start[static_cast<std::size_t>(id)] = at;
            const int latency = ir::node_timing(spec, n).latency;
            for (const int d : g.succs(n.id)) {
                ep.schedule.start[static_cast<std::size_t>(ep.node_of(m, d))] = at + latency;
            }
        }
    }
    finish(spec, ep);
    return ep;
}

}  // namespace revec::pipeline
