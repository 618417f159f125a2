// Depth-first search with chronological backtracking and branch-and-bound
// minimization, plus phase-sequenced variable-selection heuristics. The
// paper's search strategy (§3.5) is a sequence of three phases -- operation
// start times, data start times, memory slots -- each exhausted before the
// next begins; we model that directly as a PhasedBrancher.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "revec/cp/store.hpp"
#include "revec/cp/var.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::obs {
class TraceBuffer;
}  // namespace revec::obs

namespace revec::cp {

/// Variable-selection heuristic within a phase.
enum class VarSelect {
    InputOrder,   ///< first unfixed variable in phase order
    SmallestMin,  ///< smallest lower bound (good for start times)
    MinDomain,    ///< fewest remaining values (first-fail)
};

/// Value-selection heuristic within a phase.
enum class ValSelect {
    Min,  ///< smallest value
    Max,  ///< largest value
};

/// One search phase: a set of decision variables and how to branch on them.
struct Phase {
    std::vector<IntVar> vars;
    VarSelect var_select = VarSelect::SmallestMin;
    ValSelect val_select = ValSelect::Min;
    std::string label;
};

/// How the search ended.
enum class SolveStatus {
    Optimal,     ///< search space exhausted; best solution is optimal
    Unsat,       ///< no solution exists
    SatTimeout,  ///< found solution(s) but hit the deadline/limit before proving optimality
    Timeout,     ///< hit the deadline/limit before finding any solution
    /// The exact search found nothing in time, but a heuristic layer above
    /// the solver supplied a verified feasible result (anytime fallback).
    /// Never produced by solve()/satisfy() themselves.
    HeuristicFallback,
};

/// Search configuration.
struct SearchOptions {
    Deadline deadline;                 ///< wall-clock limit
    std::int64_t max_failures = -1;    ///< failure limit, -1 = unlimited

    /// Cooperative cancellation (portfolio search). When non-null and set,
    /// the search unwinds and returns Timeout/SatTimeout at the next node.
    const std::atomic<bool>* stop = nullptr;

    /// Shared branch-and-bound incumbent (portfolio search). When non-null,
    /// the effective cutoff at every node is min(local incumbent, shared
    /// value), and every local improvement is published back with an atomic
    /// minimum, so one worker's solution immediately prunes all others.
    /// The sentinel value INT64_MAX means "no incumbent yet".
    std::atomic<std::int64_t>* shared_bound = nullptr;

    /// Non-zero enables RNG-jittered value selection in the first run: with
    /// probability 1/4 a uniformly random domain value replaces the
    /// heuristic choice. Completeness is unaffected (the right branch
    /// removes the value); only the order solutions are discovered in
    /// changes. Every restart jitters with a seed drawn from this one, so 0
    /// gives an unjittered first run. Portfolio workers 1..N-1 differ from
    /// worker 0 by this seed alone.
    std::uint32_t value_jitter_seed = 0;

    /// Trace track this search writes into (also attached to the store for
    /// engine events). nullptr = tracing off; every event site is then one
    /// branch. The search emits "solution"/"bound" instants at Phase level
    /// and "node"/"fail" instants at Node level.
    obs::TraceBuffer* trace = nullptr;
};

/// Search statistics.
struct SearchStats {
    std::int64_t nodes = 0;
    std::int64_t failures = 0;
    std::int64_t solutions = 0;
    std::int64_t cutoff_prunes = 0;  ///< branches cut by the incumbent bound
    std::int64_t restarts = 0;       ///< failure-limited restarts
    double time_ms = 0.0;            ///< wall clock of the solve

    /// The field table (counters.hpp): f(metric name, merge rule, member...)
    /// once per counter, in lockstep over the given structs.
    template <typename F, typename... S>
    static constexpr void for_each_field(F&& f, S&... s) {
        f("nodes", MergeRule::Sum, s.nodes...);
        f("failures", MergeRule::Sum, s.failures...);
        f("solutions", MergeRule::Sum, s.solutions...);
        f("cutoff_prunes", MergeRule::Sum, s.cutoff_prunes...);
        f("restarts", MergeRule::Sum, s.restarts...);
        f("time_ms", MergeRule::Gauge, s.time_ms...);
    }
};

/// The solver work behind a result: search counters, engine counters and
/// the per-propagator-class profile. Every result that carries solver work
/// derives from it, and absorb()/export_metrics() are the only places that
/// work is merged and exported.
struct SolveWork {
    SearchStats stats;
    PropagationStats prop_stats;  ///< engine counters of the store(s)
    /// Per-propagator-class work attribution, sorted by class; empty unless
    /// the store had profiling enabled (Store::enable_profiling).
    std::vector<PropProfile> prop_profile;

    /// Merge another solve's work (portfolio workers, per-II attempts):
    /// every counter by its MergeRule, profiles by class name.
    void absorb(const SolveWork& other);

    /// Export as "solve.*", "engine.*" and "prop.<Class>.*"; repeated
    /// exports into one registry combine like absorb().
    void export_metrics(obs::MetricsRegistry& m) const;
};

/// The outcome of a solve: status, solver work, and (when a solution was
/// found) the values of all store variables in the best solution.
struct SolveResult : SolveWork {
    SolveStatus status = SolveStatus::Unsat;
    std::vector<int> best;  ///< indexed by IntVar::index(); empty when no solution

    bool has_solution() const { return !best.empty(); }
    int value_of(IntVar x) const { return best.at(static_cast<std::size_t>(x.index())); }
};

/// Minimize `objective` (or just find a first solution when `objective` is
/// invalid) by DFS branch-and-bound over the given phases, with
/// failure-limited restarts: the first run may fail 512 times, each later
/// run twice as often plus one, and every restart jitters its value order
/// with a seed drawn from `options.value_jitter_seed`. The incumbent
/// carries across restarts. `options.max_failures` bounds the failures of
/// all runs together.
///
/// Preconditions: the store must be at root level with all constraints
/// posted. Every variable the model requires to be decided must appear in
/// some phase; variables fully determined by propagation need not.
SolveResult solve(Store& store, const std::vector<Phase>& phases, IntVar objective,
                  const SearchOptions& options = {});

/// Convenience: satisfy-only search (first solution).
SolveResult satisfy(Store& store, const std::vector<Phase>& phases,
                    const SearchOptions& options = {});

}  // namespace revec::cp
