// Structural identity and typed diffing of KernelModels (DESIGN §5k), the
// model-layer half of incremental re-solve: canonical_hash (json.hpp) keys
// byte-exact duplicates, structural_fingerprint keys *near*-duplicates —
// models that differ only in timing/lifetime/bound constants or a handful
// of edits hash equal, so the tier-2 schedule cache can retrieve donor
// schedules for them. diff() then produces the typed ModelDelta the
// adaptation layer (heur/adapt.hpp) consumes: which nodes were edited,
// added, or removed, whether geometry knobs or bounds moved, and whether
// the pair is close enough to repurpose a schedule at all.
#pragma once

#include <cstdint>
#include <vector>

#include "revec/model/kernel_model.hpp"

namespace revec::model {

/// Stable 64-bit hash of a model's *structure*: node count, the per-node
/// op multiset (is_op / is_vector_data / op name / unit / lanes / config
/// key), edge topology (src, dst, kind — not the latency an edge carries),
/// and the geometry class (which constraint families apply:
/// memory_allocation, port limits, lifetime semantics, modulo presence,
/// pinned-start modes). Deliberately invariant to every timing, lifetime,
/// and bound constant — latencies, durations, lifetime_extra, ASAP/ALAP,
/// horizon, critical path — and to the concrete geometry *knobs* (banks,
/// lines, num_slots, machine caps, modulo II), which diff() tracks
/// instead. Two models with equal fingerprints are candidates for schedule
/// reuse; they are not necessarily equal models.
std::uint64_t structural_fingerprint(const KernelModel& m);

/// Typed difference between two KernelModels under the identity node
/// mapping (node ids are dense and ordered in both, so id i in `a` maps to
/// id i in `b`; ids beyond the shorter model are additions/removals).
struct ModelDelta {
    /// The identity mapping is meaningful: no mapped node flips its kind
    /// (is_op / is_vector_data). When false every other field is still
    /// filled best-effort but compatible() is always false.
    bool comparable = false;

    int node_count_a = 0;
    int node_count_b = 0;

    /// Mapped node ids whose operation changed: op name, unit, lanes,
    /// config key, latency, duration, or lifetime_extra. (Timing-only
    /// edits land here too — they leave the fingerprint alone but the
    /// adaptation layer must re-place the node.)
    std::vector<int> edited_nodes;
    std::vector<int> added_nodes;    ///< ids present only in b
    std::vector<int> removed_nodes;  ///< ids present only in a

    /// Edge-topology churn over (src, dst, kind) triples; edge latencies
    /// are ignored (they mirror the source node's latency, an edit).
    int edges_added = 0;
    int edges_removed = 0;

    /// Geometry knobs moved: memory geometry, machine caps, num_slots, or
    /// the modulo II/budget constants. Adaptation re-allocates slots from
    /// scratch, so knob changes stay compatible — the verifier gates.
    bool geometry_changed = false;

    /// Bound constants moved (horizon / ASAP / ALAP): b tighter than a
    /// somewhere, b looser than a somewhere. Both can hold at once.
    bool bounds_tightened = false;
    bool bounds_loosened = false;

    /// Constraint-family semantics differ — memory_allocation, port
    /// limits, lifetime definition, modulo presence, fixed starts.
    /// A donor schedule's feasibility story does not transfer across such
    /// a change, so it forces incompatibility.
    bool semantics_changed = false;

    /// Cheap go/no-go for schedule adaptation: comparable, same
    /// constraint-family semantics, and bounded structural churn (edits +
    /// additions + removals no more than a quarter of the target's nodes,
    /// edge churn in proportion). Compatibility is about *worth trying* —
    /// the adapted schedule is still independently verified.
    bool compatible() const;

    /// Scalar edit distance for nearest-donor selection; 0 iff the models
    /// differ at most in bounds. Lower is closer.
    int distance() const;
};

/// Diff `a` (the donor/cached side) against `b` (the requested side).
ModelDelta diff(const KernelModel& a, const KernelModel& b);

}  // namespace revec::model
