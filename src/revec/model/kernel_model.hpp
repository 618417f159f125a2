// Solver-agnostic scheduling model: one plain-data description of a kernel
// scheduling problem (the paper's eqs. 1-11), built from the normalized IR
// by a single lower_ir() entry point. Every consumer of the formulation —
// the CP emitter (emit_cp.hpp), the heuristic list scheduler / slot
// allocator / IMS (revec/heur), and the schedule checker (check.hpp) —
// reads this model instead of re-deriving demands from the IR, so the
// formulation lives in exactly one place and model and checker cannot
// drift.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/ir/graph.hpp"

namespace revec::model {

/// Execution unit an operation issues on (eq. 2 and the scalar /
/// index-merge unit capacities). Data nodes carry Unit::None.
enum class Unit { VectorCore, Scalar, IndexMerge, None };

/// Paper-equation semantics of one dependency edge.
enum class EdgeKind {
    Precedence,   ///< eq. 1: dst starts no earlier than src start + latency
    DataProduce,  ///< eq. 4: dst (a produced data node) starts exactly at
                  ///< src start + latency
};

struct ModelEdge {
    int src = -1;
    int dst = -1;
    int latency = 0;  ///< the source node's latency
    EdgeKind kind = EdgeKind::Precedence;
};

/// One node of the scheduling problem, indexed by IR node id. Plain data:
/// timing, resource demand, adjacency, and lifetime endpoints are all
/// precomputed by lower_ir.
struct ModelNode {
    int id = -1;
    bool is_op = false;
    bool is_vector_data = false;
    std::string cat;  ///< IR category name (diagnostics only)
    std::string op;   ///< operation name; empty for data nodes

    // Timing and resource demand under the lowered architecture.
    int latency = 0;
    int duration = 0;
    int lanes = 0;  ///< vector lanes occupied; 0 for non-vector-core nodes
    Unit unit = Unit::None;
    int config = -1;  ///< dense configuration id; -1 unless unit == VectorCore

    // Adjacency by node id, preserving the IR's edge insertion order.
    std::vector<int> preds;
    std::vector<int> succs;
    std::vector<int> vector_inputs;   ///< VectorData preds: reads at issue (eqs. 7/8)
    std::vector<int> vector_outputs;  ///< VectorData succs: writes at completion (eq. 9)

    // Lifetime endpoints (eq. 10) for data nodes.
    bool is_input = false;   ///< no producer: start pinned to 0
    bool persists = false;   ///< no users or program output: lives past the makespan
    int lifetime_extra = 0;  ///< life = last_use - start + lifetime_extra
};

/// Per-cycle machine capacities the model schedules against.
struct MachineCaps {
    int vector_lanes = 0;
    int scalar_units = 0;
    int index_merge_units = 0;
    int max_vector_reads = 0;   ///< vector read ports per cycle
    int max_vector_writes = 0;  ///< vector write ports per cycle
    int reconfig_cycles = 0;    ///< cost of one configuration change
};

/// Optional modulo wrap (§4.3): schedule the kernel onto II residues.
struct ModuloWrap {
    int ii = 0;
    int max_stage = 0;  ///< filled by lower_ir (horizon / ii + 1)
    bool minimize_reconfigs = false;
    int reconfig_budget = 0;  ///< cap on cyclic configuration changes R
};

/// Knobs for lower_ir. Defaults produce the full paper model against the
/// architecture's whole memory and a critical-path horizon.
struct LowerOptions {
    /// Memory slots available; -1 = the architecture's full memory.
    int num_slots = -1;

    /// Schedule horizon (exclusive bound on completions); -1 = the
    /// critical-path length. Consumers that need slack (ASAP/ALAP) against
    /// the critical path — the heuristic priority orders — must lower with
    /// the default.
    int horizon = -1;

    bool memory_allocation = true;       ///< include eqs. 6-11
    bool three_phase_search = true;      ///< §3.5 phases vs. one first-fail phase
    bool enforce_port_limits = true;     ///< per-cycle vector read/write caps
    bool lifetime_includes_last_read = true;  ///< executable-lifetime extension

    /// Non-empty pins every node's start (slot-only solve).
    std::vector<int> fixed_starts;

    /// Wrap the problem onto II residues; max_stage is recomputed.
    std::optional<ModuloWrap> modulo;
};

/// The lowered scheduling problem. All vectors indexed by IR node id keep
/// the IR's id order, so any walk over `nodes`, `ops`, `vector_ops`,
/// `vdata`, or `inputs` visits nodes exactly as the historical per-consumer
/// lowerings did — consumers rely on that for deterministic, replayable
/// variable and decision orders.
struct KernelModel {
    std::string name;
    std::vector<ModelNode> nodes;  ///< indexed by node id
    std::vector<ModelEdge> edges;  ///< grouped by src id, then IR succ order
    std::vector<int> ops;          ///< op node ids, ascending
    std::vector<int> vector_ops;   ///< vector-core op ids, ascending
    std::vector<int> vdata;        ///< VectorData node ids, ascending
    std::vector<int> inputs;       ///< producer-less data node ids, ascending
    std::vector<std::string> config_keys;  ///< dense config id -> key

    arch::MemoryGeometry geometry;
    MachineCaps caps;

    int num_slots = 0;
    int horizon = 0;
    int critical_path = 0;
    std::vector<int> asap;  ///< per node id
    std::vector<int> alap;  ///< per node id, against `horizon`

    bool memory_allocation = true;
    bool three_phase_search = true;
    bool enforce_port_limits = true;
    bool lifetime_includes_last_read = true;
    std::vector<int> fixed_starts;

    /// Partial pinning for subproblem re-solves (LNS repair rounds). When
    /// non-empty: one entry per node; entries >= 0 pin that node's start,
    /// -1 leaves it free. Unlike fixed_starts (the all-or-nothing slot-only
    /// mode), a frozen value that conflicts with the model bounds marks the
    /// emission infeasible instead of throwing — the LNS layer treats that
    /// as a rejected round. Pinning happens through plain assignments, so
    /// the emitted variable set (count and indices) is identical to the
    /// unfrozen model's; lower_ir never fills this field.
    std::vector<int> frozen_starts;
    std::optional<ModuloWrap> modulo;

    int num_nodes() const { return static_cast<int>(nodes.size()); }
    const ModelNode& node(int id) const { return nodes[static_cast<std::size_t>(id)]; }
};

/// Lower one kernel iteration of `g` under `spec` into a KernelModel.
/// Pure data extraction — no CP store, no solver state. The graph should
/// already be normalized (ir::merge_pipeline_ops) like every scheduling
/// entry point expects.
KernelModel lower_ir(const arch::ArchSpec& spec, const ir::Graph& g,
                     const LowerOptions& options = {});

/// Copy of `m` with the horizon raised (or lowered) to `horizon`. ALAP
/// times are computed against the horizon as latest-start = horizon minus
/// the tail path, so every entry shifts by exactly the horizon delta —
/// the copy matches what lower_ir would have produced with this horizon,
/// without needing the spec/graph. The modulo max_stage is recomputed the
/// way lower_ir fills it. Requires horizon >= critical_path (ALAP would
/// drop below ASAP otherwise).
KernelModel with_horizon(const KernelModel& m, int horizon);

/// Lower bound on the cyclic configuration-change count R of any modulo
/// kernel of `m`: every configuration forms at least one maximal block
/// around the kernel, so with two or more configurations R is at least
/// their number; with fewer it is 0. A reconfiguration-aware modulo model
/// whose II or budget is below it is infeasible.
int modulo_reconfig_floor(const KernelModel& m);

}  // namespace revec::model
