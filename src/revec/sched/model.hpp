// The paper's unified constraint model (§3.3-§3.5): instruction scheduling
// combined with vector-memory allocation, solved by branch-and-bound with
// the three-phase search heuristic (operation starts -> data starts ->
// memory slots).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/cp/portfolio.hpp"
#include "revec/ir/graph.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/obs/trace.hpp"
#include "revec/sched/schedule.hpp"

namespace revec::sched {

/// An externally produced candidate schedule offered as a warm incumbent
/// (DESIGN §5k): the svc reuse layer passes the adapted donor schedule
/// here. schedule_model re-verifies it against the model being solved
/// (model::check_schedule) and adopts it only when clean and strictly
/// better than its own heuristic — a rejected or inferior seed is silently
/// dropped, never trusted.
struct IncumbentSeed {
    std::vector<int> start;
    std::vector<int> slot;
    int makespan = 0;
    int slots_used = 0;
};

/// Options for solving an already-lowered KernelModel (schedule_model).
/// This is the re-entrant core of schedule_kernel: everything the solve
/// needs travels in the model or here, so concurrent callers — the revecd
/// solver pool in particular — share nothing but the process.
struct ModelSolveOptions {
    /// Wall-clock budget in milliseconds; -1 = unlimited.
    std::int64_t timeout_ms = -1;

    /// Warm start from the heuristic layer (src/revec/heur): a verified
    /// list-schedule + greedy-allocation solution seeds the branch-and-bound
    /// incumbent, so the exact search only ever explores strictly better
    /// makespans, and is returned as the result (status HeuristicFallback)
    /// when the exact search times out without any solution of its own.
    /// Disabling gives the cold exact solver (used by the differential
    /// warm-vs-cold tests and the paper-literal reproduction runs).
    bool warm_start = true;

    /// Skip the exact solver entirely and return the verified heuristic
    /// schedule (status HeuristicFallback). Implies warm_start semantics
    /// for the result shape; useful as a fast compilation mode.
    bool heuristic_only = false;

    /// Exact search (§3.5), run through cp::solve_portfolio: N restarting
    /// workers with a shared branch-and-bound incumbent, all but worker 0
    /// jittering their values; threads = 1 is exactly cp::solve.
    cp::SolverConfig solver;

    /// Optional externally supplied incumbent (see IncumbentSeed). Only
    /// consulted on warm-started full solves of models without
    /// fixed_starts; ignored (with a trace instant) otherwise.
    std::optional<IncumbentSeed> incumbent;

    /// Trace track the schedule-level spans (heuristic/emit_cp/search) are
    /// written to. When null, falls back to solver.trace->main().
    /// Concurrent callers must pass distinct tracks — a TraceBuffer is
    /// single-writer.
    obs::TraceBuffer* trace = nullptr;
};

/// Options of schedule_kernel: the model knobs (model::LowerOptions — the
/// slot budget, memory allocation, search phases, port limits, lifetime
/// rule and pinned starts), the solve knobs (ModelSolveOptions) and the
/// target architecture. Pass the same value to verify_schedule (it reads
/// the model knobs) so the check sees the model that was solved.
struct ScheduleOptions : model::LowerOptions, ModelSolveOptions {
    arch::ArchSpec spec = arch::ArchSpec::eit();
};

/// Solve the scheduling (+ memory allocation) problem for one iteration of
/// the kernel in `g`. The IR should already be normalized with
/// ir::merge_pipeline_ops for best results (the paper always schedules the
/// merged graph). Equivalent to
/// schedule_model(lower_for_schedule(g, o), model_solve_options(o)).
Schedule schedule_kernel(const ir::Graph& g, const ScheduleOptions& options = {});

/// Lower `g` exactly as schedule_kernel does before solving: lowered once
/// at the critical path, then moved (model::with_horizon) to the horizon
/// the model itself yields (the rung-0 heur::priority_list_schedule
/// makespan plus padding under unit durations, the summed durations
/// otherwise, extended to cover fixed_starts), with num_slots resolved; no
/// heuristic-driven horizon raise — that happens inside schedule_model,
/// which reproduces it bit-for-bit from the model alone. This is the model
/// `revecc --dump-model` writes and the revecd differential replays.
model::KernelModel lower_for_schedule(const ir::Graph& g,
                                      const ScheduleOptions& options = {});

/// The solve knobs of `options`, as schedule_kernel passes them on.
ModelSolveOptions model_solve_options(const ScheduleOptions& options);

/// Solve an already-lowered flat KernelModel: verified heuristic warm
/// start, exact CP search (cp::solve_portfolio at any thread count),
/// anytime merge — the body of schedule_kernel
/// after lowering. Throws revec::Error for a model with a modulo wrap.
/// Re-entrant: safe to call concurrently from many threads given distinct
/// trace tracks.
Schedule schedule_model(const model::KernelModel& km,
                        const ModelSolveOptions& options = {});

}  // namespace revec::sched
