// Parallel portfolio branch-and-bound: the one entry point through which
// the scheduling layers (sched::schedule_model, the pipeline's modulo scan)
// run an exact search, whatever the thread count. N workers run the
// sequential DFS of search.hpp over *diversified* configurations of the
// same model — permuted variable/value-selection heuristics, flattened
// phases, failure-limited restarts with RNG-jittered value ordering. All
// workers share a single atomic incumbent objective, so any worker's
// improvement immediately prunes every other worker; the first worker to
// exhaust its (bound-pruned) search space proves optimality for the whole
// portfolio and cooperatively cancels the rest.
//
// Emission: the caller emits the model once — it needs the variable table
// to read the solution back anyway — and hands that store over. Worker 0
// searches it; only workers 1..N-1 and the canonical replay re-emit the
// model through the builder hook, each into a store of its own. One worker
// (and no LNS workers) runs inline on the caller's thread and trace track:
// the sequential solver's tree, node for node, with no worker track.
//
// A second worker kind (SolverConfig::lns_workers, DESIGN §5h) runs
// large-neighbourhood search over the shared incumbent *assignment*: each
// round relaxes a neighbourhood of the incumbent through the opaque
// LnsRoundFn hook and publishes strictly improving repairs back through
// the same shared bound. The portfolio stays model-agnostic — the hook is
// built by revec::lns over the scheduling model.
//
// Determinism: the merged result picks the best objective, breaking ties
// toward the lowest configuration index. Which worker *reports* the winning
// objective can still vary with thread timing, so every proven-optimal
// parallel run re-derives the reported assignment by a deterministic
// bounded sequential pass over the baseline configuration (the canonical
// replay, always on); repeated runs with the same seed and thread count then
// return bit-identical solutions.
//
// Solver work: every worker report, LNS round and the replay is a
// cp::SolveWork, and the merged result sums them through SolveWork::absorb
// alone — LNS repair solves included.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"

namespace revec::obs {
class TraceSink;
}  // namespace revec::obs

namespace revec::cp {

/// One large-neighbourhood-search round request, handed to the LnsRoundFn
/// hook by an LNS worker. The portfolio knows nothing about scheduling
/// models — the hook (built by revec::lns over a KernelModel) interprets
/// the incumbent assignment, relaxes a neighbourhood, and re-solves the
/// frozen-rest subproblem.
struct LnsRoundContext {
    /// Snapshot of the best known full store assignment (indexed by
    /// IntVar::index() against any emission of the model). Never null.
    const std::vector<int>* incumbent = nullptr;
    std::int64_t objective = 0;  ///< the incumbent's objective value
    std::uint32_t seed = 0;      ///< deterministic per (worker, round)
    int worker = 0;              ///< LNS worker index (0-based)
    int round = 0;               ///< round number within this worker
    Deadline deadline;           ///< the portfolio's wall-clock limit
    const std::atomic<bool>* stop = nullptr;  ///< cooperative cancel
    obs::TraceBuffer* trace = nullptr;        ///< this worker's track
    std::int64_t trace_rid = 0;  ///< request id stamped on round spans; 0 = none
    bool profile = false;        ///< SolverConfig::profile: profile the repair store
};

/// What one LNS round produced: the repair solve's work, absorbed into the
/// worker's report, and — when `improved` — a verified assignment strictly
/// better than the round's incumbent snapshot, which the worker publishes
/// through the shared bound and the shared incumbent.
struct LnsRoundResult : SolveWork {
    bool improved = false;
    std::vector<int> assignment;  ///< full store assignment when improved
    std::int64_t objective = 0;
};

/// The LNS round hook. Must be safe to invoke concurrently from several
/// LNS worker threads (each call gets its own context and seed).
using LnsRoundFn = std::function<LnsRoundResult(const LnsRoundContext&)>;

/// Portfolio knob threaded through the scheduling layers: how many workers
/// and the seed feeding the jitter RNGs.
struct SolverConfig {
    int threads = 1;
    std::uint32_t seed = 0x5eedu;

    /// Large-neighbourhood-search workers raced alongside the CP workers
    /// (DESIGN §5h). Each loops: snapshot the shared incumbent assignment,
    /// run one lns_round, publish accepted improvements through the shared
    /// bound so every CP worker prunes against them. 0 = off. Requires
    /// lns_round when positive.
    int lns_workers = 0;

    /// The round hook driving lns_workers; built by lns::make_portfolio_round.
    LnsRoundFn lns_round;

    /// Optional full store assignment matching initial_incumbent (e.g. the
    /// completed heuristic schedule), so LNS workers can start relaxing
    /// before any CP worker finds a first solution of its own.
    std::vector<int> lns_seed_assignment;

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

    /// Service request id stamped onto worker span begins (and LNS round
    /// contexts) so one request's story is filterable across tracks in
    /// revec-stats. 0 = no request association; spans then carry no rid
    /// payload, keeping standalone traces byte-identical to before.
    std::int64_t trace_rid = 0;

    /// Attribute propagation work (runs, time, domain changes, failures) to
    /// propagator classes on every worker and LNS repair store; results
    /// surface as prop_profile on the merged outcome. Adds a timer read per
    /// propagator execution.
    bool profile = false;
};

/// What the re-posting hook returns: the search phases and the objective
/// (an invalid objective makes it a satisfaction problem).
struct PostedModel {
    std::vector<Phase> phases;
    IntVar objective;
};

/// Re-posting hook: build the model into the given (fresh) store. Must be
/// deterministic — every call creates identical variables (same indices in
/// creation order) and constraints, the same ones the caller's own emission
/// holds — and safe to invoke concurrently on distinct stores.
using ModelBuilder = std::function<PostedModel(Store&)>;

/// One row of the diversification table.
struct WorkerConfig {
    VarSelect var_select = VarSelect::SmallestMin;
    ValSelect val_select = ValSelect::Min;
    bool keep_phase_heuristics = true;  ///< use the builder's per-phase heuristics
    bool flatten_phases = false;        ///< merge all phases into a single phase
    bool restarts = false;              ///< failure-limited restarts with jitter
    std::uint32_t jitter_seed = 0;      ///< 0 = no value jitter
    std::string label;
};

/// Configuration for worker `k`. Worker 0 is always the baseline (the
/// builder's own heuristics, no restarts) so a 1-thread portfolio explores
/// exactly the sequential tree.
WorkerConfig diversified_config(int k, std::uint32_t seed);

/// Per-worker outcome, kept for diagnostics and the scaling bench. The
/// SolveWork part is the worker store's work (CP workers) or the summed
/// repair work of every round (LNS workers).
struct WorkerReport : SolveWork {
    int config_index = 0;
    std::string label;
    SolveStatus status = SolveStatus::Timeout;
    std::int64_t best_objective = -1;  ///< -1 = this worker found no solution
    bool proved = false;               ///< exhausted its bound-pruned tree

    // LNS worker bookkeeping (zero for CP workers).
    bool is_lns = false;
    std::int64_t lns_rounds = 0;
    std::int64_t lns_accepted = 0;  ///< strictly improving, verifier-clean rounds
    std::int64_t lns_rejected = 0;
};

/// Merged portfolio outcome. The SolveWork part is merged over all workers
/// (plus the replay pass); `best` holds the winning assignment indexed by
/// IntVar::index() against any store the builder produces.
struct PortfolioResult : SolveResult {
    int winner = -1;  ///< config index that produced `best`
    std::vector<WorkerReport> workers;
};

/// Minimize the model's objective (or find a first solution when the
/// objective is invalid) with `config.threads` diversified workers sharing
/// one incumbent bound, plus `config.lns_workers` LNS workers improving the
/// shared incumbent assignment through the lns_round hook. `store` holds the
/// caller's emission of the model (at root level, not yet searched) and
/// `model` its phases and objective; worker 0 searches it and leaves it at
/// root level. `build` re-emits the same model for workers 1..N-1 and the
/// replay, so a 1-worker solve never calls it. `options.deadline` and
/// `options.max_failures` apply to every worker individually;
/// `options.trace` receives the 1-worker search and the replay;
/// `options.stop`/`shared_bound`/`on_solution` must be null — the portfolio
/// owns those.
PortfolioResult solve_portfolio(Store& store, const PostedModel& model,
                                const ModelBuilder& build, const SolverConfig& config,
                                const SearchOptions& options = {});

}  // namespace revec::cp
