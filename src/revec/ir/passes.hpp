// IR normalization passes.
//
// merge_pipeline_ops (paper §3.3.1, Fig. 6): vector-pipeline operations that
// follow the pre- / core- / post-processing pattern are fused into a single
// node, so the scheduler can model the whole 7-stage pipeline as one unit
// with a single latency instead of modelling each stage.
//
// lower_matrix_ops (paper §3.2.2, Figs. 4-5): the inverse design choice —
// rewrite matrix operations into four per-row vector operations plus, when
// the rows produce scalars, a merge node. Used for the ablation comparing
// matrix ops against their expanded forms.
#pragma once

#include "revec/ir/graph.hpp"

namespace revec::ir {

/// Statistics of a pass application.
struct PassStats {
    int fused_pre = 0;
    int fused_post = 0;
    int lowered_matrix_ops = 0;
    int nodes_before = 0;
    int nodes_after = 0;
};

/// Fuse pre-processing ops into their (sole) core consumer and post-
/// processing ops onto their core producer. Returns the rewritten graph,
/// or a copy of `g` itself when nothing fuses (no node or edge is re-added);
/// `stats`, when non-null, receives what was fused.
Graph merge_pipeline_ops(const Graph& g, PassStats* stats = nullptr);

/// Expand matrix operations into per-row vector operations (+ merge nodes
/// for scalar-per-row results). m_hermitian is left untouched: its lane
/// shuffle has no per-row vector equivalent.
Graph lower_matrix_ops(const Graph& g, PassStats* stats = nullptr);

}  // namespace revec::ir
