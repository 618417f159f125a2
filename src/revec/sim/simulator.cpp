#include "revec/sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "revec/dsl/eval.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/sim/machine.hpp"
#include "revec/support/assert.hpp"

namespace revec::sim {

namespace {

struct PendingWrite {
    int commit_cycle;
    int slot;       ///< -1 for scalar results
    int data_node;  ///< producing data node
    ir::Value value;
};

}  // namespace

SimResult simulate(const arch::ArchSpec& spec, const ir::Graph& g,
                   const codegen::MachineProgram& prog, const SimOptions& options) {
    SimResult result;
    VectorMemory memory(spec.memory);
    ScalarRegs regs(g.num_nodes());

    // Availability cycle of each data node's value.
    std::vector<int> ready(static_cast<std::size_t>(g.num_nodes()), -1);

    // Preload program inputs (available "from the start", cycle 0).
    for (const int d : g.input_nodes()) {
        const ir::Node& node = g.node(d);
        if (!node.input_value.has_value()) {
            throw Error("input data node " + std::to_string(d) + " has no value to preload");
        }
        if (node.cat == ir::NodeCat::VectorData) {
            const int slot = prog.slot_of_data[static_cast<std::size_t>(d)];
            if (slot < 0) throw Error("input vector node " + std::to_string(d) + " has no slot");
            memory.write(slot, d, *node.input_value);
        } else {
            regs.write(d, *node.input_value);
        }
        ready[static_cast<std::size_t>(d)] = 0;
    }

    std::vector<PendingWrite> pending;

    std::vector<int> landing_slots;  // one landing cycle's vector writes
    const auto commit_group = [&](int upto_cycle) {
        // Commit (and rule-check) all writes due strictly before upto_cycle.
        // pending is kept in landing order, so they are a prefix of it and
        // commit in that order, one run of equal landing cycles at a time.
        const auto due = std::find_if(pending.begin(), pending.end(), [&](const PendingWrite& w) {
            return w.commit_cycle >= upto_cycle;
        });
        for (auto run = pending.begin(); run != due;) {
            const int cycle = run->commit_cycle;
            landing_slots.clear();
            for (; run != due && run->commit_cycle == cycle; ++run) {
                if (run->slot >= 0) landing_slots.push_back(run->slot);
            }
            if (landing_slots.empty()) continue;
            const arch::AccessCheck check = arch::check_simultaneous_access(
                spec.memory, {}, landing_slots,
                {spec.max_vector_reads_per_cycle, spec.max_vector_writes_per_cycle});
            if (!check.ok) {
                result.violations.push_back("write-back at cycle " + std::to_string(cycle) +
                                            ": " + check.reason);
            }
        }
        for (auto it = pending.begin(); it != due; ++it) {
            if (it->slot >= 0) {
                memory.write(it->slot, it->data_node, it->value);
            } else {
                regs.write(it->data_node, it->value);
            }
        }
        pending.erase(pending.begin(), due);
    };

    // Read a vector operand at cycle t, with forwarding from in-flight
    // writes that commit exactly at t (the model allows a consumer to start
    // at the producer's completion cycle).
    const auto read_vector = [&](int slot, int data_node, int t) -> ir::Value {
        if (ready[static_cast<std::size_t>(data_node)] < 0 ||
            ready[static_cast<std::size_t>(data_node)] > t) {
            throw Error("data node " + std::to_string(data_node) + " read at cycle " +
                        std::to_string(t) + " but ready at " +
                        std::to_string(ready[static_cast<std::size_t>(data_node)]));
        }
        for (const PendingWrite& w : pending) {
            if (w.data_node == data_node && w.slot == slot && w.commit_cycle <= t) {
                return w.value;
            }
        }
        return memory.read(slot, data_node);
    };

    std::string current_config;
    int completion = 0;

    for (const codegen::MachineInstr& instr : prog.instrs) {
        const int t = instr.cycle;
        commit_group(t);  // writes from earlier cycles land first

        if (!instr.vector_config.empty() && instr.vector_config != current_config) {
            ++result.reconfigurations;
            current_config = instr.vector_config;
        }

        // Model-mode rule check: the vector-core reads of this issue group.
        std::vector<int> group_reads;
        for (const codegen::OpIssue& issue : instr.vector_ops) {
            for (const int s : issue.src_slots) group_reads.push_back(s);
        }
        if (!group_reads.empty()) {
            const arch::AccessCheck check = arch::check_simultaneous_access(
                spec.memory, group_reads, {},
                {spec.max_vector_reads_per_cycle, spec.max_vector_writes_per_cycle});
            if (!check.ok) {
                result.violations.push_back("reads at cycle " + std::to_string(t) + ": " +
                                            check.reason);
            }
        }
        if (options.strict_memory_check) {
            // All traffic of cycle t jointly: issue-group reads plus writes
            // landing at t from earlier issues.
            std::vector<int> landing;
            for (const PendingWrite& w : pending) {
                if (w.commit_cycle == t && w.slot >= 0) landing.push_back(w.slot);
            }
            const arch::AccessCheck check = arch::check_simultaneous_access(
                spec.memory, group_reads, landing,
                {spec.max_vector_reads_per_cycle, spec.max_vector_writes_per_cycle});
            if (!check.ok) {
                result.violations.push_back("strict check at cycle " + std::to_string(t) +
                                            ": " + check.reason);
            }
        }

        // Execute every issue of this cycle.
        const auto execute = [&](const codegen::OpIssue& issue) {
            const ir::Node& node = g.node(issue.op_node);
            if (options.record_trace) {
                std::string line = "t=" + std::to_string(t) + ": " + node.op;
                if (!node.pre_op.empty()) line += "(+" + node.pre_op + ")";
                if (!node.post_op.empty()) line += "(+" + node.post_op + ")";
                line += " #" + std::to_string(issue.op_node);
                for (const int slot : issue.src_slots) line += " M[" + std::to_string(slot) + "]";
                for (const int r : issue.src_scalars) line += " r" + std::to_string(r);
                line += " ->";
                if (issue.dst_slot >= 0) line += " M[" + std::to_string(issue.dst_slot) + "]";
                for (const int slot : issue.dst_slots) line += " M[" + std::to_string(slot) + "]";
                if (issue.dst_scalar >= 0) line += " r" + std::to_string(issue.dst_scalar);
                result.trace.push_back(std::move(line));
            }
            std::vector<ir::Value> args;
            for (const int d : g.preds(issue.op_node)) {
                const ir::Node& data = g.node(d);
                if (data.cat == ir::NodeCat::VectorData) {
                    args.push_back(
                        read_vector(prog.slot_of_data[static_cast<std::size_t>(d)], d, t));
                } else {
                    if (ready[static_cast<std::size_t>(d)] < 0 ||
                        ready[static_cast<std::size_t>(d)] > t) {
                        throw Error("scalar r" + std::to_string(d) + " read at cycle " +
                                    std::to_string(t) + " before ready");
                    }
                    // Forward in-flight scalar values committing at <= t.
                    bool forwarded = false;
                    for (const PendingWrite& w : pending) {
                        if (w.data_node == d && w.slot < 0 && w.commit_cycle <= t) {
                            args.push_back(w.value);
                            forwarded = true;
                            break;
                        }
                    }
                    if (!forwarded) args.push_back(regs.read(d));
                }
            }
            const std::vector<ir::Value> results = dsl::apply_node(node, args);
            const ir::NodeTiming timing = ir::node_timing(spec, node);
            const auto& outs = g.succs(issue.op_node);
            REVEC_ASSERT(results.size() == outs.size());
            for (std::size_t i = 0; i < outs.size(); ++i) {
                const int d = outs[i];
                const int wb = t + timing.latency;
                ready[static_cast<std::size_t>(d)] = wb;
                const int slot = g.node(d).cat == ir::NodeCat::VectorData
                                     ? prog.slot_of_data[static_cast<std::size_t>(d)]
                                     : -1;
                // Keep pending in landing order (issue order among writes
                // landing together): a short-latency write issued later can
                // land in a slot before a long-latency write issued earlier.
                const auto at = std::upper_bound(
                    pending.begin(), pending.end(), wb,
                    [](int cycle, const PendingWrite& w) { return cycle < w.commit_cycle; });
                pending.insert(at, {wb, slot, d, results[i]});
                completion = std::max(completion, wb);
            }
        };
        for (const codegen::OpIssue& issue : instr.vector_ops) execute(issue);
        for (const codegen::OpIssue& issue : instr.scalar_ops) execute(issue);
        for (const codegen::OpIssue& issue : instr.ix_ops) execute(issue);
    }
    commit_group(completion + 1);  // drain
    result.cycles = completion;

    // Compare every program output against the reference evaluation.
    const std::vector<ir::Value> reference = dsl::evaluate(g);
    double max_err = 0.0;
    for (const int d : g.output_nodes()) {
        const ir::Node& node = g.node(d);
        const ir::Value actual = node.cat == ir::NodeCat::VectorData
                                     ? memory.read(prog.slot_of_data[static_cast<std::size_t>(d)], d)
                                     : regs.read(d);
        const ir::Value& expect = reference[static_cast<std::size_t>(d)];
        for (std::size_t k = 0; k < static_cast<std::size_t>(ir::kVecLen); ++k) {
            max_err = std::max(max_err, std::abs(actual.elems[k] - expect.elems[k]));
        }
    }
    result.max_output_error = max_err;
    result.outputs_match = max_err < 1e-9;
    return result;
}

}  // namespace revec::sim
