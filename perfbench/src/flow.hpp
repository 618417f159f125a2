// The compile flow the paper_prove and fast_compile workloads time, through
// each layer's public entry point: DSL trace -> ir::merge_pipeline_ops ->
// sched::lower_for_schedule -> sched::schedule_model -> model::check_schedule
// -> codegen::generate_code + encode_program -> sim::simulate. Plus the
// reconfiguration-aware modulo schedule of Table 3.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "bench.hpp"
#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"
#include "revec/ir/graph.hpp"
#include "revec/sched/schedule.hpp"

namespace perfbench {

/// A kernel as the DSL builds it (the build is the `dsl` layer's work).
struct KernelSource {
    std::string name;
    std::function<revec::ir::Graph()> build;
};

struct CompileOutcome {
    double wall_ms = 0.0;  ///< the whole flow, from DSL trace to simulation
    double cpu_ms = 0.0;   ///< its process CPU time
    std::string error;     ///< empty when every stage succeeded and checked out

    int makespan = 0;
    bool proven = false;
    std::int64_t code_bytes = 0;
    int sim_cycles = 0;
    int sim_reconfigs = 0;
    int ir_nodes = 0;       ///< IR nodes the DSL trace produced
    int nodes_removed = 0;  ///< nodes merge_pipeline_ops folded away

    revec::cp::SearchStats search;
    revec::cp::PropagationStats prop;

    // Traced runs only.
    PhaseTimes phases;
    double list_ms = 0.0;   ///< ladder replay: heur::priority_list_schedule
    double alloc_ms = 0.0;  ///< ladder replay: heur::allocate_slots
};

/// What running a schedule's generated code showed.
struct CodeRun {
    std::int64_t code_bytes = 0;  ///< encoded size of the configuration bundles
    int cycles = 0;
    int reconfigs = 0;
};

/// Generate, encode and simulate the code for schedule `s` of the merged
/// graph `merged`. Throws when the simulator reports a violation, the
/// outputs differ from the DSL reference, or the simulated cycles differ
/// from the makespan -- the output check of every compile and served
/// schedule.
CodeRun run_code(const revec::ir::Graph& merged, const revec::sched::Schedule& s,
                 Tracer* tracer);

/// Compile one kernel (sequential solver, warm start on, like a default
/// `revecc` run; `heuristic_only` is `revecc --heuristic-only`). Errors
/// thrown by any layer are caught and reported in `error`. When `tracer`
/// is set, layer spans are recorded, and after the timed flow the ladder
/// is replayed through its public calls to split its time into list
/// scheduling and slot allocation (outside wall_ms and the attribution).
CompileOutcome compile_kernel(const KernelSource& k, bool heuristic_only, Tracer* tracer);

struct ModuloOutcome {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    std::string error;
    int actual_ii = 0;
    bool proven = false;
};

/// DSL trace, merge, and the reconfiguration-aware modulo schedule
/// (pipeline::modulo_schedule with include_reconfigs), 30 s deadline.
ModuloOutcome modulo_kernel(const KernelSource& k, Tracer* tracer);

/// Book a finished compile into a pass: its wall and CPU time, the deterministic
/// sums and counters, and the ladder figures of traced runs. A failed
/// compile is counted and reported on stderr under `name`.
void add_compile(PassResult& pass, const std::string& name, const CompileOutcome& c);

}  // namespace perfbench
