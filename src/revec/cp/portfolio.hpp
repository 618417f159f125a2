// Parallel portfolio branch-and-bound: the one entry point through which
// the scheduling layers (sched::schedule_model, the pipeline's modulo scan)
// run an exact search, whatever the thread count. N workers each run one
// cp::solve — the restarting DFS of search.hpp over the model's own phases —
// and differ only by their jitter seed: 0 for worker 0, a nonzero seed drawn
// from (seed, k) for every further worker. All workers share a single atomic
// incumbent objective, so any worker's improvement immediately prunes every
// other worker; the first worker to exhaust its (bound-pruned) search space
// proves optimality for the whole portfolio and cooperatively cancels the
// rest.
//
// Emission: the caller emits the model once — it needs the variable table
// to read the solution back anyway — and hands that store over. Worker 0
// searches it; workers 1..N-1 search clones of it (Store::clone), taken on
// the caller's thread before worker 0 starts, so every worker's solution
// indexes the caller's variable table. One worker runs inline on the
// caller's thread and trace track: exactly cp::solve's tree, node for node,
// with no worker track.
//
// Determinism:
//   - at 1 thread the result for a seed is bit-identical run to run;
//   - at N threads a proven objective is identical run to run, and the
//     assignment is the lowest-index worker's with the best objective;
//     which worker reaches it first depends on thread timing, so the
//     assignment can vary between runs;
//   - every schedule built from the result still passes check_schedule.
//
// Solver work: every worker report is a cp::SolveWork, and the merged
// result sums them through SolveWork::absorb alone.
#pragma once

#include <cstdint>
#include <vector>

#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"

namespace revec::obs {
class TraceSink;
}  // namespace revec::obs

namespace revec::cp {

/// The most workers one solve may run: each is a thread. revecc's
/// --threads and the wire's options.threads are refused past it at parse
/// time, before any thread starts.
inline constexpr int kMaxWorkers = 64;

/// Portfolio knob threaded through the scheduling layers: how many workers
/// (1 .. kMaxWorkers) and the seed the jitter seeds are drawn from.
struct SolverConfig {
    int threads = 1;
    std::uint32_t seed = 0x5eedu;

    /// Warm start: seed the shared incumbent bound with the objective value
    /// of an externally known feasible solution (e.g. a heuristic
    /// schedule). Every worker then only explores strictly better
    /// objectives from the first node on. An exhausted search that found
    /// nothing under this bound (status Unsat) proves the seeded solution
    /// optimal. INT64_MAX (the default) means "no incumbent".
    std::int64_t initial_incumbent = INT64_MAX;

    /// Trace sink for parallel solves. nullptr = no worker tracks. With more
    /// than one worker the portfolio registers one track per worker (in
    /// worker order, before the threads spawn, so serialization order is
    /// deterministic); a single worker writes into SearchOptions::trace,
    /// as do the scheduling layers around the search.
    obs::TraceSink* trace = nullptr;

    /// Service request id stamped onto worker span begins so one request's
    /// story is filterable across tracks in revec-stats. 0 = no request
    /// association; spans then carry no rid payload, keeping standalone
    /// traces byte-identical to before.
    std::int64_t trace_rid = 0;

    /// Attribute propagation work (runs, time, domain changes, failures) to
    /// propagator classes on every worker store; results surface as
    /// prop_profile on the merged outcome. Adds a timer read per propagator
    /// execution.
    bool profile = false;
};

/// How to search an emitted store: the search phases and the objective
/// (an invalid objective makes it a satisfaction problem).
struct PostedModel {
    std::vector<Phase> phases;
    IntVar objective;
};

/// SearchOptions::value_jitter_seed of worker `k`: 0 for worker 0, so a
/// 1-thread portfolio walks cp::solve's unjittered tree; a nonzero seed
/// drawn from (seed, k) for every worker k >= 1.
std::uint32_t worker_jitter_seed(int k, std::uint32_t seed);

/// Per-worker outcome, kept for diagnostics and the scaling bench. The
/// SolveWork part is the worker store's work.
struct WorkerReport : SolveWork {
    int config_index = 0;
    std::uint32_t jitter_seed = 0;
    SolveStatus status = SolveStatus::Timeout;
    std::int64_t best_objective = -1;  ///< -1 = this worker found no solution
    bool proved = false;               ///< exhausted its bound-pruned tree
};

/// Merged portfolio outcome. The SolveWork part is merged over all workers;
/// `best` holds the winning assignment indexed by IntVar::index() against
/// the caller's store.
struct PortfolioResult : SolveResult {
    int winner = -1;  ///< config index that produced `best`
    std::vector<WorkerReport> workers;
};

/// Minimize the model's objective (or find a first solution when the
/// objective is invalid) with `config.threads` workers sharing one
/// incumbent bound. `store` holds the caller's emission of the model
/// (at root level, not yet searched) and `model` its phases and objective;
/// worker 0 searches it and leaves it at root level. Workers 1..N-1 search
/// clones of it taken before the search starts; a 1-worker solve takes none.
/// `options.deadline` and `options.max_failures` apply to every worker
/// individually; `options.value_jitter_seed` is set per worker;
/// `options.trace` receives the 1-worker search;
/// `options.stop`/`shared_bound` must be null — the portfolio owns those.
PortfolioResult solve_portfolio(Store& store, const PostedModel& model,
                                const SolverConfig& config, const SearchOptions& options = {});

}  // namespace revec::cp
