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
#include "revec/lns/lns.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/obs/trace.hpp"
#include "revec/sched/schedule.hpp"

namespace revec::sched {

/// Scheduling options.
struct ScheduleOptions {
    arch::ArchSpec spec = arch::ArchSpec::eit();

    /// Number of memory slots available ("#slots available" in Table 1).
    /// -1 means the architecture's full memory (banks * lines).
    int num_slots = -1;

    /// Wall-clock budget in milliseconds; -1 = unlimited.
    std::int64_t timeout_ms = -1;

    /// Include the memory-allocation part of the model (eqs. 6-11).
    /// Disabling reproduces a pure scheduler (used by ablations and by the
    /// manual-baseline comparison, which the paper notes "does not include
    /// memory allocation").
    bool memory_allocation = true;

    /// Use the paper's three sequential search phases (§3.5). When false, a
    /// single first-fail phase over all decision variables is used instead
    /// (ablation).
    bool three_phase_search = true;

    /// Enforce the physical memory-port limits (at most 8 vector reads and
    /// 4 vector writes per cycle — "two matrices read, one written"). The
    /// paper's model leaves this implicit; the EIT op set can exceed it
    /// (four 3-operand ops would read 12 vectors), so it defaults on.
    bool enforce_port_limits = true;

    /// Pin every node's start time (slot-only solve). When non-empty, must
    /// hold a valid start per node; the model then only assigns memory
    /// slots — used to allocate memory for externally produced schedules
    /// such as unrolled modulo kernels (§4.3's closing remark).
    std::vector<int> fixed_starts;

    /// Lifetime definition. The paper's eq. (10) ends a lifetime at the
    /// start of the last consumer, which admits zero-width lifetimes whose
    /// values can only exist in forwarding paths — legal in the model but
    /// not executable as stored machine code. The default (true) includes
    /// the last read in the occupied interval, which the code generator and
    /// simulator require; set false for the paper-literal model (used by
    /// the Table 1 reproduction for comparison).
    bool lifetime_includes_last_read = true;

    /// Exact search (§3.5), run through cp::solve_portfolio: N diversified
    /// workers with a shared branch-and-bound incumbent; threads = 1 walks
    /// the sequential tree. See cp/portfolio.hpp for the knobs. Setting
    /// solver.lns_workers > 0 races LNS workers alongside (the lns_round
    /// hook and seed assignment are wired here from the lowered model — the
    /// caller only sets the count and `lns` tuning).
    cp::SolverConfig solver;

    /// Tuning of the portfolio's LNS workers (relax fraction, repair
    /// budget, selector rotation). Ignored unless solver.lns_workers > 0.
    lns::LnsTuning lns;

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
};

/// An externally produced candidate schedule offered as a warm incumbent
/// (DESIGN §5k): the svc reuse layer passes the adapted donor schedule
/// here. schedule_model re-verifies it against the model being solved
/// (model::check_schedule, port limits enforced) and adopts it only when
/// clean and strictly better than its own heuristic — a rejected or
/// inferior seed is silently dropped, never trusted.
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

    /// Seed the exact search from the heuristic layer / return the
    /// heuristic schedule as the anytime fallback (see ScheduleOptions).
    bool warm_start = true;

    /// Skip the exact solver and return the verified heuristic schedule.
    bool heuristic_only = false;

    /// Solver configuration (threads, portfolio, LNS worker count, trace
    /// sink) — as ScheduleOptions::solver.
    cp::SolverConfig solver;

    /// LNS tuning; ignored unless solver.lns_workers > 0.
    lns::LnsTuning lns;

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

/// Solve the scheduling (+ memory allocation) problem for one iteration of
/// the kernel in `g`. The IR should already be normalized with
/// ir::merge_pipeline_ops for best results (the paper always schedules the
/// merged graph). Equivalent to
/// schedule_model(lower_for_schedule(g, o), model_solve_options(o)).
Schedule schedule_kernel(const ir::Graph& g, const ScheduleOptions& options = {});

/// Lower `g` exactly as schedule_kernel does before solving: num_slots and
/// the horizon resolved (greedy-derived default, slot-only fixed-starts
/// extension), no heuristic-driven horizon raise — that happens inside
/// schedule_model, which reproduces it bit-for-bit from the model alone.
/// This is the model `revecc --dump-model` writes and the revecd
/// differential replays.
model::KernelModel lower_for_schedule(const ir::Graph& g,
                                      const ScheduleOptions& options = {});

/// Map the schedule-level options onto ModelSolveOptions the way
/// schedule_kernel does.
ModelSolveOptions model_solve_options(const ScheduleOptions& options);

/// Solve an already-lowered KernelModel: verified heuristic warm start,
/// exact CP search (cp::solve_portfolio at any thread count, LNS workers on
/// unpinned models), anytime merge — the body of schedule_kernel after lowering. Re-entrant: safe to
/// call concurrently from many threads given distinct trace tracks.
Schedule schedule_model(const model::KernelModel& km,
                        const ModelSolveOptions& options = {});

}  // namespace revec::sched
