// Random kernel generator: seeded, layered dataflow programs over the DSL
// op set. Used by the stress/property tests (every generated kernel must
// schedule, verify, encode, and simulate bit-exactly) and usable as a
// benchmark workload generator.
#pragma once

#include "revec/ir/graph.hpp"

namespace revec::apps {

struct RandomKernelOptions {
    unsigned seed = 1;
    int num_ops = 30;        ///< approximate operation count
    bool use_matrix = true;  ///< include matrix operations
    bool use_fusable = true; ///< include pre/post-stage operations
};

/// Build a random kernel. Deterministic in the options. The generated
/// graph is validated and avoids numerically unsafe operations (no
/// divisions), so reference evaluation is always well-defined.
ir::Graph build_random_kernel(const RandomKernelOptions& options);

/// The hard corpus: 70-op random kernels with matrix ops whose searches run
/// past the first restart limit (512 failures), each with its proven
/// optimal makespan (merged, default lowering). Read by
/// ext_portfolio_scaling and the PortfolioHardCorpus tests.
struct HardKernel {
    unsigned seed;
    int optimum;
    RandomKernelOptions options() const { return {seed, 70, true, true}; }
};
inline constexpr HardKernel kHardCorpus[] = {{3, 44},  {14, 47}, {20, 44}, {21, 48},
                                             {31, 39}, {66, 52}, {67, 57}, {86, 44}};

}  // namespace revec::apps
