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

    bool operator==(const ModelEdge&) const = default;
};

/// One node of the scheduling problem, indexed by IR node id. Plain data.
/// The primary fields say what the node is; derive() fills the rest from
/// them, so the two cannot disagree.
struct ModelNode {
    // Primary: lower_ir and from_json set these.
    int id = -1;
    ir::NodeCat cat = ir::NodeCat::VectorData;  ///< named (ir::cat_name) on the wire only
    std::string op;   ///< operation name; empty for data nodes
    int latency = 0;
    int duration = 0;
    int lanes = 0;  ///< vector lanes occupied; 0 for non-vector-core nodes
    Unit unit = Unit::None;
    int config = -1;          ///< dense configuration id; -1 unless unit == VectorCore
    std::vector<int> preds;   ///< producers by node id, in the IR's edge order
    bool persists = false;    ///< data node with no users or a program output:
                              ///< lives past the makespan (false on ops)

    // Derived by derive().
    bool is_op = false;           ///< from cat
    bool is_vector_data = false;  ///< from cat
    std::vector<int> succs;           ///< consumers, ascending
    std::vector<int> vector_inputs;   ///< VectorData preds: reads at issue (eqs. 7/8)
    std::vector<int> vector_outputs;  ///< VectorData succs: writes at completion (eq. 9)
    bool is_input = false;   ///< data node with no producer: start pinned to 0
    int lifetime_extra = 0;  ///< life = last_use - start + lifetime_extra (eq. 10)

    bool operator==(const ModelNode&) const = default;
};

/// Per-cycle machine capacities the model schedules against.
struct MachineCaps {
    int vector_lanes = 0;
    int scalar_units = 0;
    int index_merge_units = 0;
    int max_vector_reads = 0;   ///< vector read ports per cycle
    int max_vector_writes = 0;  ///< vector write ports per cycle
    int reconfig_cycles = 0;    ///< cost of one configuration change

    bool operator==(const MachineCaps&) const = default;
};

/// Optional modulo wrap (§4.3): schedule the kernel onto II residues.
struct ModuloWrap {
    int ii = 0;
    int max_stage = 0;  ///< derived: horizon / ii + 1
    bool minimize_reconfigs = false;
    int reconfig_budget = 0;  ///< cap on cyclic configuration changes R

    bool operator==(const ModuloWrap&) const = default;
};

/// The model knobs, declared here once: lower_ir reads them, KernelModel
/// keeps its lowered copy, and sched::ScheduleOptions inherits them.
/// Defaults produce the full paper model against the architecture's whole
/// memory.
struct LowerOptions {
    /// Number of memory slots available ("#slots available" in Table 1).
    /// -1 means the architecture's full memory (banks * lines).
    int num_slots = -1;

    /// Include the memory-allocation part of the model (eqs. 6-11).
    /// Disabling reproduces a pure scheduler (used by ablations and by the
    /// manual-baseline comparison, which the paper notes "does not include
    /// memory allocation").
    bool memory_allocation = true;

    /// Use the paper's three sequential search phases (§3.5). When false, a
    /// single first-fail phase over all decision variables is used instead
    /// (ablation).
    bool three_phase_search = true;

    /// Enforce the physical memory-port limits (at most 8 vector reads and
    /// 4 vector writes per cycle — "two matrices read, one written"). The
    /// paper's model leaves this implicit; the EIT op set can exceed it
    /// (four 3-operand ops would read 12 vectors), so it defaults on.
    bool enforce_port_limits = true;

    /// Lifetime definition. The paper's eq. (10) ends a lifetime at the
    /// start of the last consumer, which admits zero-width lifetimes whose
    /// values can only exist in forwarding paths — legal in the model but
    /// not executable as stored machine code. The default (true) includes
    /// the last read in the occupied interval, which the code generator and
    /// simulator require; set false for the paper-literal model (used by
    /// the Table 1 reproduction for comparison).
    bool lifetime_includes_last_read = true;

    /// Pin every node's start time (slot-only solve). When non-empty, must
    /// hold a valid start per node; the model then only assigns memory
    /// slots — used to allocate memory for externally produced schedules
    /// such as unrolled modulo kernels (§4.3's closing remark).
    std::vector<int> fixed_starts;
};

/// The lowered scheduling problem. All vectors indexed by IR node id keep
/// the IR's id order, so any walk over `nodes`, `ops`, `vector_ops`,
/// `vdata`, or `inputs` visits nodes exactly as the historical per-consumer
/// lowerings did — consumers rely on that for deterministic, replayable
/// variable and decision orders. The fields marked derived are filled by
/// derive() from the rest; everything else is primary.
struct KernelModel {
    std::string name;
    std::vector<ModelNode> nodes;  ///< indexed by node id
    std::vector<std::string> config_keys;  ///< dense config id -> key

    arch::MemoryGeometry geometry;
    MachineCaps caps;

    int num_slots = 0;
    int horizon = 0;

    bool memory_allocation = true;
    bool three_phase_search = true;
    bool enforce_port_limits = true;
    bool lifetime_includes_last_read = true;
    std::vector<int> fixed_starts;
    std::optional<ModuloWrap> modulo;

    // Derived by derive().
    std::vector<ModelEdge> edges;  ///< grouped by src id, then ascending dst
    std::vector<int> ops;          ///< op node ids, ascending
    std::vector<int> vector_ops;   ///< vector-core op ids, ascending
    std::vector<int> vdata;        ///< VectorData node ids, ascending
    std::vector<int> inputs;       ///< producer-less data node ids, ascending
    int critical_path = 0;
    std::vector<int> asap;  ///< per node id
    std::vector<int> alap;  ///< per node id, against `horizon`

    int num_nodes() const { return static_cast<int>(nodes.size()); }
    const ModelNode& node(int id) const { return nodes[static_cast<std::size_t>(id)]; }

    bool operator==(const KernelModel&) const = default;
};

/// Fill every derived field of `m` from its primary fields, in one pass
/// over the nodes and one topological walk:
///   - is_op / is_vector_data from cat; ops, vector_ops (unit VectorCore),
///     vdata and inputs;
///   - succs from preds, and edges (src, each succ; the source's latency;
///     DataProduce into a data node, Precedence into an op);
///   - vector_inputs / vector_outputs of ops; is_input and lifetime_extra
///     of data nodes (persists is cleared on ops);
///   - asap, alap against `horizon`, critical_path, and modulo->max_stage.
/// lower_ir and from_json both finish a model here, so a model read off
/// the wire is derived exactly as a lowered one. Throws revec::Error when
/// it cannot finish: a pred id out of range, a cycle (a self-pred too), an
/// edge between two ops or two data nodes, a data node with two producers,
/// an unknown cat, `modulo->ii` <= 0, or latencies and horizon whose
/// longest path does not fit an int.
void derive(KernelModel& m);

/// Lower one kernel iteration of `g` under `spec` into a KernelModel.
/// Pure data extraction — no CP store, no solver state. The graph should
/// already be normalized (ir::merge_pipeline_ops) like every scheduling
/// entry point expects.
///
/// `horizon` is the exclusive bound on completions; -1 = the critical-path
/// length, as derive() computes it from the lowered latencies (applied with
/// with_horizon, so the IR is walked once). Consumers that need slack
/// (ASAP/ALAP) against the critical path — the heuristic priority orders —
/// must lower with the default.
/// `modulo` wraps the problem onto II residues; its max_stage is
/// recomputed from the horizon. The primary fields come from the graph and
/// the spec, the rest from derive().
KernelModel lower_ir(const arch::ArchSpec& spec, const ir::Graph& g,
                     const LowerOptions& options = {}, int horizon = -1,
                     std::optional<ModuloWrap> modulo = {});

/// `m` with the horizon raised (or lowered) to `horizon`: every ALAP entry
/// moves by the horizon delta and the modulo max_stage is recomputed, so
/// the result equals what derive() (and so lower_ir) gives at this horizon
/// without re-deriving anything else. Requires horizon >= critical_path
/// (ALAP would drop below ASAP otherwise); throws revec::Error where
/// derive() would: `modulo->ii` <= 0, or a horizon whose longest path does
/// not fit an int.
KernelModel with_horizon(KernelModel m, int horizon);

/// `m` with `wrap` attached at `horizon` (with_horizon): what
/// lower_ir(spec, g, options, horizon, wrap) builds when `m` is that
/// graph's lowering. The modulo scan builds every candidate II's model
/// this way from one lowering.
KernelModel with_modulo(KernelModel m, int horizon, ModuloWrap wrap);

/// Resource lower bound on the initiation interval of any modulo kernel of
/// `m`: a residue hosts one vector configuration of at most vector_lanes
/// lanes, one issue per scalar unit and one per index/merge unit, so II is
/// at least the sum over configurations of ceil(lanes / vector lanes), and
/// at least the scalar and the index/merge op counts over their units.
/// Requires every capacity positive (ArchSpec::validate's rule).
int modulo_ii_lower_bound(const KernelModel& m);

/// Lower bound on the cyclic configuration-change count R of any modulo
/// kernel of `m`: every configuration forms at least one maximal block
/// around the kernel, so with two or more configurations R is at least
/// their number; with fewer it is 0. A reconfiguration-aware modulo model
/// whose II or budget is below it is infeasible. The actual II of any
/// modulo kernel, II + R * caps.reconfig_cycles, is therefore at least
/// modulo_ii_lower_bound(m) + modulo_reconfig_floor(m) * caps.reconfig_cycles
/// (DESIGN §5m).
int modulo_reconfig_floor(const KernelModel& m);

/// The terms of makespan_lower_bound. With head = ASAP and tail = horizon
/// - ALAP - duration (the path that must still run after an op releases
/// its unit), each resource term is the largest
///   a + (cycles the ops in S keep the unit busy) + min tail over S
/// over the sets S = {ops of the unit with head >= a and tail >= b}: the
/// last op of S to release the unit does so no earlier than a plus the
/// busy cycles, and its tail still follows.
struct MakespanBound {
    int critical_path = 0;
    int scalar = 0;       ///< busy cycles: ceil(sum of durations / units)
    int index_merge = 0;  ///< busy cycles: ceil(sum of durations / units)
    /// Busy cycles when every vector-core duration is 1: sum over
    /// configurations c of ceil(lanes of c / vector lanes), since a cycle
    /// hosts one configuration (eq. 3; a full-width op fills its cycle
    /// alone). Otherwise ceil(lane-cycle area / vector lanes).
    int vector_core = 0;

    int value() const;
};

/// Lower bound on the makespan of every feasible schedule of the flat
/// model `m`, computed from the model alone in O(n^2). The horizon does
/// not move it (tails are horizon-invariant).
MakespanBound makespan_lower_bound(const KernelModel& m);

}  // namespace revec::model
