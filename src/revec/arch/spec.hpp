// Parameterized model of the EIT reconfigurable vector architecture
// (Zhang 2014; §1.1 of the paper): a 7-stage vector pipeline with four
// homogeneous lanes of four CMAC units each, a scalar accelerator for
// division/square-root/CORDIC, an index/merge unit, and a banked vector
// memory (see memory.hpp).
#pragma once

#include "revec/arch/memory.hpp"

namespace revec::arch {

/// The resources operations execute on.
enum class Resource {
    VectorCore,  ///< PE2-4 pipeline: vector and matrix operations
    Scalar,      ///< accelerator: division, square root, CORDIC
    IndexMerge,  ///< vector element extraction and scalar-to-vector merging
};

/// Cap on every latency and duration the scheduler accepts, in cycles:
/// ArchSpec::validate and model::from_json reject larger values (and
/// non-positive op timings), so the heuristic layer can size its per-cycle
/// reservation window from a model's timings.
inline constexpr int kMaxLatency = 1024;

/// Architecture parameters. Defaults model the EIT instance evaluated in
/// the paper; everything is adjustable to retarget the scheduler.
struct ArchSpec {
    // -- vector block -------------------------------------------------------
    int vector_lanes = 4;      ///< parallel processing lanes in PE3
    int vector_length = 4;     ///< complex elements per vector (CMACs per lane)
    int pipeline_stages = 7;   ///< load, pre, 2x vector, 2x post, write-back
    int vector_latency = 7;    ///< cycles until a vector op's output is ready
    int vector_duration = 1;   ///< issue-slot occupancy (fully pipelined)
    int max_operands = 3;      ///< operands per vector operation

    // -- scalar accelerator -------------------------------------------------
    int scalar_units = 1;
    int scalar_latency = 4;
    int scalar_duration = 1;

    // -- index / merge unit -------------------------------------------------
    int index_merge_units = 1;
    int index_merge_latency = 1;
    int index_merge_duration = 1;

    // -- reconfiguration ----------------------------------------------------
    /// Extra cycles inserted when two consecutive effective instructions on
    /// the vector pipeline have different configurations.
    int reconfig_cycles = 1;

    // -- memory ---------------------------------------------------------------
    MemoryGeometry memory;
    int max_vector_reads_per_cycle = 8;   ///< two 4x4 matrices
    int max_vector_writes_per_cycle = 4;  ///< one 4x4 matrix

    /// The EIT instance from the paper.
    static ArchSpec eit();

    /// Throws revec::Error when parameters are inconsistent.
    void validate() const;
};

}  // namespace revec::arch
