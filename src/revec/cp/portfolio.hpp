// Parallel portfolio branch-and-bound: the one entry point through which
// the scheduling layers (sched::schedule_model, the pipeline's modulo scan)
// run an exact search, whatever the thread count. N workers run the
// sequential DFS of search.hpp over the model's own phases: worker 0 as the
// sequential solver does, every further worker with failure-limited
// restarts and RNG-jittered value ordering from its own jitter seed. All
// workers share a single atomic incumbent objective, so any worker's
// improvement immediately prunes every other worker; the first worker to
// exhaust its (bound-pruned) search space proves optimality for the whole
// portfolio and cooperatively cancels the rest.
//
// Emission: the caller emits the model once — it needs the variable table
// to read the solution back anyway — and hands that store over. Worker 0
// searches it; workers 1..N-1 and the canonical replay search clones of it
// (Store::clone), taken on the caller's thread before worker 0 starts, so
// every worker's solution indexes the caller's variable table. One worker
// runs inline on the caller's thread and trace track: the sequential
// solver's tree, node for node, with no worker track.
//
// Determinism: the merged result picks the best objective, breaking ties
// toward the lowest configuration index. Which worker *reports* the winning
// objective can still vary with thread timing, so every proven-optimal
// parallel run re-derives the reported assignment by a deterministic
// bounded sequential pass over the baseline configuration (the canonical
// replay, always on, within kReplayFailures failures); repeated runs with the
// same seed and thread count then return bit-identical solutions whenever
// the replay finds one within its budget.
//
// Solver work: every worker report and the replay is a cp::SolveWork, and
// the merged result sums them through SolveWork::absorb alone.
#pragma once

#include <cstdint>
#include <string>
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

/// The canonical replay's failure budget. The replay searches the baseline
/// configuration under the proven bound until its first solution; on some
/// models that tree is far larger than the one the proving worker walked
/// (70-op random kernel seed 3 at 2 threads: 79 459 nodes in 2 s without
/// one), so past this many failures it stops and the merged winner's
/// assignment stands.
inline constexpr std::int64_t kReplayFailures = 2000;

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
    /// as do the replay and the scheduling layers around the search.
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

/// How worker `k` searches the model's phases.
struct WorkerConfig {
    bool restarts = false;          ///< failure-limited restarts with jitter
    std::uint32_t jitter_seed = 0;  ///< 0 = no value jitter
    std::string label;
};

/// Configuration for worker `k`. Worker 0 is the baseline (no restarts, no
/// jitter), so a 1-thread portfolio explores exactly the sequential tree.
/// Every worker k >= 1 restarts, with a nonzero jitter seed drawn from
/// (seed, k).
WorkerConfig worker_config(int k, std::uint32_t seed);

/// Per-worker outcome, kept for diagnostics and the scaling bench. The
/// SolveWork part is the worker store's work.
struct WorkerReport : SolveWork {
    int config_index = 0;
    std::string label;
    SolveStatus status = SolveStatus::Timeout;
    std::int64_t best_objective = -1;  ///< -1 = this worker found no solution
    bool proved = false;               ///< exhausted its bound-pruned tree
};

/// Merged portfolio outcome. The SolveWork part is merged over all workers
/// (plus the replay pass); `best` holds the winning assignment indexed by
/// IntVar::index() against the caller's store.
struct PortfolioResult : SolveResult {
    int winner = -1;  ///< config index that produced `best`
    std::vector<WorkerReport> workers;
};

/// Minimize the model's objective (or find a first solution when the
/// objective is invalid) with `config.threads` workers sharing one
/// incumbent bound. `store` holds the caller's emission of the model
/// (at root level, not yet searched) and `model` its phases and objective;
/// worker 0 searches it and leaves it at root level. Workers 1..N-1 and the
/// replay search clones of it taken before the search starts; a 1-worker
/// solve takes none.
/// `options.deadline` and `options.max_failures` apply to every worker
/// individually; `options.trace` receives the 1-worker search and the replay;
/// `options.stop`/`shared_bound` must be null — the portfolio owns those.
PortfolioResult solve_portfolio(Store& store, const PostedModel& model,
                                const SolverConfig& config, const SearchOptions& options = {});

}  // namespace revec::cp
