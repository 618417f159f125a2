// Parallel portfolio branch-and-bound (tentpole of the solver-parallelism
// work): N workers run the sequential DFS of search.hpp over *diversified*
// configurations of the same model — permuted variable/value-selection
// heuristics, flattened phases, failure-limited restarts with RNG-jittered
// value ordering — against independent stores rebuilt through a re-posting
// hook. All workers share a single atomic incumbent objective, so any
// worker's improvement immediately prunes every other worker; the first
// worker to exhaust its (bound-pruned) search space proves optimality for
// the whole portfolio and cooperatively cancels the rest.
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
// objective can still vary with thread timing, so after a proven-optimal
// parallel run the reported assignment is re-derived by a deterministic
// bounded sequential pass over the baseline configuration (canonical
// replay); repeated runs with the same seed and thread count then return
// bit-identical solutions. With one worker the portfolio is bit-compatible
// with the sequential solver (same tree, same node counts).
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

/// Failure-limited restart policy for the restart-flavored workers.
/// Geometric growth keeps restart workers complete: the limit eventually
/// exceeds any finite search space.
struct RestartPolicy {
    bool enabled = true;
    std::int64_t initial_failures = 512;
    double growth = 2.0;
};

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
};

/// What one LNS round produced. `improved` implies a verified assignment
/// strictly better than the round's incumbent snapshot; the worker then
/// publishes it through the shared bound and the shared incumbent.
struct LnsRoundResult {
    bool improved = false;
    std::vector<int> assignment;  ///< full store assignment when improved
    std::int64_t objective = 0;
    SearchStats stats;  ///< repair-search work, absorbed into the worker's
};

/// The LNS round hook. Must be safe to invoke concurrently from several
/// LNS worker threads (each call gets its own context and seed).
using LnsRoundFn = std::function<LnsRoundResult(const LnsRoundContext&)>;

/// Portfolio knob threaded through the scheduling layers: how many workers,
/// how restart workers behave, and the seed feeding the jitter RNGs.
struct SolverConfig {
    int threads = 1;
    RestartPolicy restart_policy;
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

    /// Re-derive a proven-optimal parallel result with a deterministic
    /// bounded sequential pass so repeated runs return identical
    /// assignments, not just identical objectives.
    bool canonical_replay = true;

    /// Warm start: seed the shared incumbent bound with the objective value
    /// of an externally known feasible solution (e.g. a heuristic
    /// schedule). Every worker then only explores strictly better
    /// objectives from the first node on. An exhausted search that found
    /// nothing under this bound (status Unsat) proves the seeded solution
    /// optimal. INT64_MAX (the default) means "no incumbent".
    std::int64_t initial_incumbent = INT64_MAX;

    /// Trace sink for the solve. nullptr = tracing off (every event site is
    /// one branch). The portfolio registers one track per worker (in worker
    /// order, before the threads spawn, so serialization order is
    /// deterministic); the sequential layers write into the sink's main
    /// track.
    obs::TraceSink* trace = nullptr;

    /// Service request id stamped onto worker span begins (and LNS round
    /// contexts) so one request's story is filterable across tracks in
    /// revec-stats. 0 = no request association; spans then carry no rid
    /// payload, keeping standalone traces byte-identical to before.
    std::int64_t trace_rid = 0;

    /// Attribute propagation work (runs, time, domain changes, failures) to
    /// propagator classes on every worker store; results surface as
    /// prop_profile on the merged outcome. Adds a timer read per propagator
    /// execution.
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
/// creation order) and constraints — and safe to invoke concurrently on
/// distinct stores.
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
WorkerConfig diversified_config(int k, std::uint32_t seed, const RestartPolicy& policy);

/// Per-worker outcome, kept for diagnostics and the scaling bench.
struct WorkerReport {
    int config_index = 0;
    std::string label;
    SolveStatus status = SolveStatus::Timeout;
    SearchStats stats;
    PropagationStats prop_stats;       ///< engine counters of the worker store
    std::vector<PropProfile> prop_profile;  ///< per-class work (profile mode)
    std::int64_t best_objective = -1;  ///< -1 = this worker found no solution
    bool proved = false;               ///< exhausted its bound-pruned tree

    // LNS worker bookkeeping (zero for CP workers).
    bool is_lns = false;
    std::int64_t lns_rounds = 0;
    std::int64_t lns_accepted = 0;  ///< strictly improving, verifier-clean rounds
    std::int64_t lns_rejected = 0;
};

/// Merged portfolio outcome. `best` holds the winning assignment indexed by
/// IntVar::index() against any store the builder produces.
struct PortfolioResult {
    SolveStatus status = SolveStatus::Unsat;
    SearchStats stats;       ///< merged over all workers (plus the replay pass)
    PropagationStats prop_stats;  ///< engine counters, merged likewise
    std::vector<PropProfile> prop_profile;  ///< per-class work, merged likewise
    std::vector<int> best;   ///< empty when no worker found a solution
    int winner = -1;         ///< config index that produced `best`
    std::vector<WorkerReport> workers;

    bool has_solution() const { return !best.empty(); }
    int value_of(IntVar x) const { return best.at(static_cast<std::size_t>(x.index())); }

    /// Adapter for call sites written against the sequential solver.
    SolveResult to_solve_result() const;
};

/// Minimize the built model's objective (or find a first solution when the
/// objective is invalid) with `config.threads` diversified workers sharing
/// one incumbent bound, plus `config.lns_workers` LNS workers improving the
/// shared incumbent assignment through the lns_round hook. `options.deadline`
/// and `options.max_failures` apply to every worker individually;
/// `options.stop`/`shared_bound`/`on_solution` must be null — the portfolio
/// owns those.
PortfolioResult solve_portfolio(const ModelBuilder& build, const SolverConfig& config,
                                const SearchOptions& options = {});

}  // namespace revec::cp
