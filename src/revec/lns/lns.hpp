// Large-neighbourhood search over an incumbent schedule (DESIGN §5h). The
// base model is emitted once per run (by the caller, for the portfolio
// hook); each round relaxes a neighbourhood of
// t_starts (neighbourhood.hpp), and on a clone of that store
// (cp::Store::clone) freezes the rest at their incumbent values by plain
// assignment and re-solves under a strict improvement bound and a tight
// failure budget. A round is accepted only when the repair solve's
// schedule passes model::check_schedule against the *base* model and
// strictly lowers the makespan, so the incumbent sequence is monotone and
// verify-clean by construction — the property the tests/lns suites pin
// down.
//
// Two entry points: improve_schedule() is the standalone, fully
// deterministic round loop (fixed seed + failure budgets, no wall-clock
// dependence unless a deadline is set) used by tests and benches;
// make_portfolio_round() packages one round as the cp::LnsRoundFn hook the
// portfolio's LNS workers drive (cp/portfolio.hpp stays model-agnostic).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "revec/cp/portfolio.hpp"
#include "revec/lns/neighbourhood.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::obs {
class MetricsRegistry;
class TraceBuffer;
}  // namespace revec::obs

namespace revec::lns {

/// Shape of the moves: how much to relax and how hard to repair. Shared by
/// the standalone loop and the portfolio hook. Round r relaxes with the
/// selectors in fixed rotation: random slice, critical-path window,
/// resource hot row.
struct LnsTuning {
    /// Fraction of the op nodes each round un-freezes (before the
    /// DataProduce closure). Small slices repair fast but move little;
    /// large slices approach a full re-solve.
    double relax_pct = 0.3;

    /// Failure budget of one repair solve. Keeps every round cheap and —
    /// unlike a wall-clock budget — deterministic.
    std::int64_t repair_failures = 2000;
};

/// Control of one standalone improve_schedule run.
struct LnsOptions {
    LnsTuning tuning;
    std::uint32_t seed = 0x1a15u;
    int max_rounds = 64;  ///< -1 = until the deadline / stop flag
    Deadline deadline;    ///< default: never expires
    const std::atomic<bool>* stop = nullptr;
    obs::TraceBuffer* trace = nullptr;
};

/// Outcome of a standalone run. start/slot/makespan always hold the final
/// incumbent (the input schedule when nothing improved).
struct LnsResult {
    bool improved = false;
    std::vector<int> start;
    std::vector<int> slot;
    int makespan = 0;
    int slots_used = 0;
    int rounds = 0;
    int accepted = 0;
    int rejected = 0;
    /// Makespan after each accepted round — strictly decreasing.
    std::vector<int> incumbent_trail;
    cp::SearchStats stats;  ///< summed repair-search work

    /// Export round/accept/reject counters and the final makespan under
    /// `prefix` (default "lns.") with deterministic key order.
    void export_metrics(obs::MetricsRegistry& m, const std::string& prefix = "lns.") const;
};

/// Run LNS rounds over the verified incumbent (start, slot, makespan) of
/// the flat model `m` (no modulo wrap, no fixed starts; the model's horizon
/// must cover the incumbent). Emits `m` once; every round solves a clone.
/// Deterministic in options.seed when no deadline/stop cuts the loop short.
LnsResult improve_schedule(const model::KernelModel& m, const std::vector<int>& start,
                           const std::vector<int>& slot, int makespan,
                           const LnsOptions& options = {});

/// Package one LNS round over `m` as the portfolio hook. `base` is a
/// level-0 copy (Store::clone) of the store the CP workers search, holding
/// m's emission, and `vt` its handles; the model, base and vt are captured.
/// Each call decodes the incumbent assignment through `vt` (the CP workers
/// search clones of the same emission, so the handles index every worker's
/// assignments), runs one relax/repair round on a clone of `base` seeded
/// from the context, and returns the improving assignment when the repair
/// is verifier-clean. Safe to invoke concurrently.
cp::LnsRoundFn make_portfolio_round(const model::KernelModel& m, cp::Store base,
                                    model::VarTable vt, const LnsTuning& tuning);

/// Turn `store` — a clone of the base model's emission, whose handles are
/// `vt` — into one repair subproblem: assign every start outside `relaxed`
/// (node ids) its incumbent value from `inc_start`, then cap the makespan
/// strictly below `inc_makespan`. Returns false when that empties a domain
/// (a frozen value outside the model bounds, or no room below the
/// incumbent): the round is rejected, nothing throws.
bool freeze_for_repair(cp::Store& store, const model::VarTable& vt,
                       const std::vector<int>& inc_start, const std::vector<int>& relaxed,
                       int inc_makespan);

/// Complete a verified schedule into a full store assignment of a model's
/// emission (start + slot decisions assigned, the rest fixed by
/// propagation) — the SolverConfig::lns_seed_assignment warm start.
/// `store` is a level-0 copy (Store::clone) of the emission, searched and
/// discarded here; `vt` holds its handles. Empty on any inconsistency
/// (defensive; a check_schedule-clean input cannot fail).
std::vector<int> complete_assignment(cp::Store store, const model::VarTable& vt,
                                     const std::vector<int>& start,
                                     const std::vector<int>& slot);

}  // namespace revec::lns
