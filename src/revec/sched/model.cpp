#include "revec/sched/model.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "revec/heur/alloc.hpp"
#include "revec/heur/list.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/validate.hpp"
#include "revec/lns/lns.hpp"
#include "revec/model/check.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/obs/trace.hpp"
#include "revec/support/assert.hpp"

namespace revec::sched {

namespace {

int derive_horizon(const arch::ArchSpec& spec, const ir::Graph& g) {
    const int cp_len = ir::critical_path_length(spec, g);
    const bool unit_durations = spec.vector_duration == 1 && spec.scalar_duration == 1 &&
                                spec.index_merge_duration == 1;
    if (unit_durations) {
        // A greedy list schedule is feasible under unit durations, so its
        // makespan is a valid upper bound; pad a little so the memory
        // allocation never turns a tight horizon into spurious UNSAT.
        const ListScheduleResult greedy = list_schedule(spec, g);
        return std::max(cp_len, greedy.makespan) + 2 * spec.vector_latency;
    }
    int total = cp_len;
    for (const ir::Node& n : g.nodes()) total += ir::node_timing(spec, n).duration;
    return total;
}

/// Fill a Schedule (solution and solver work) from a solver result.
Schedule extract_schedule(const model::KernelModel& km, const model::VarTable& m,
                          const cp::SolveResult& result) {
    Schedule sched;
    sched.status = result.status;
    static_cast<cp::SolveWork&>(sched) = result;
    if (!result.has_solution()) return sched;

    const auto n = static_cast<std::size_t>(km.num_nodes());
    sched.start.assign(n, 0);
    sched.slot.assign(n, -1);
    for (std::size_t id = 0; id < n; ++id) {
        sched.start[id] = result.value_of(m.start[id]);
    }
    std::set<int> used;
    for (const auto& [d, var] : m.slot_of) {
        sched.slot[static_cast<std::size_t>(d)] = result.value_of(var);
        used.insert(result.value_of(var));
    }
    sched.slots_used = static_cast<int>(used.size());
    sched.makespan = result.value_of(m.makespan);
    return sched;
}

/// Build a verified heuristic schedule (list scheduler + greedy slot
/// allocator) for the warm start / anytime fallback. The retry ladder
/// relaxes the schedule's simultaneous-access coupling when the packed
/// schedule's access groups defeat the greedy allocator. Every candidate is
/// re-checked against the model; nullopt means no rung of the ladder
/// produced a clean schedule (e.g. too few slots).
///
/// The heuristics read slack priorities (ALAP - ASAP) and ALAP order, both
/// of which are invariant under the uniform shift a horizon change applies
/// to every ALAP entry — so running them on `km` directly reproduces the
/// historical critical-path-horizon lowering exactly. The port limits are
/// always checked: the heuristics respect them by construction, and a
/// stricter feasible schedule remains a valid incumbent for a relaxed
/// exact model.
std::optional<Schedule> heuristic_schedule(const model::KernelModel& km,
                                           obs::TraceBuffer* trace) {
    obs::SpanScope span(trace, obs::TraceLevel::Phase, "heuristic");
    model::KernelModel checked = km;
    checked.enforce_port_limits = true;

    std::int64_t rung_index = 0;
    for (const heur::ListOptions& rung : heur::ladder()) {
        const heur::ListResult list = heur::priority_list_schedule(checked, rung);
        Schedule sched;
        sched.start = list.start;
        sched.slot.assign(static_cast<std::size_t>(km.num_nodes()), -1);
        sched.makespan = list.makespan;
        sched.status = cp::SolveStatus::HeuristicFallback;
        bool ok = true;
        if (km.memory_allocation) {
            const heur::AllocResult alloc = heur::allocate_slots(checked, list.start);
            ok = alloc.ok;
            if (ok) {
                sched.slot = alloc.slot;
                sched.slots_used = alloc.slots_used;
            }
        }
        if (ok) {
            ok = model::check_schedule(checked, sched.start, sched.slot, sched.makespan)
                     .empty();
        }
        obs::instant(trace, obs::TraceLevel::Phase, "heur_rung", "rung", rung_index++,
                     "ok", ok ? 1 : 0);
        if (ok) {
            span.result("makespan", sched.makespan);
            return sched;
        }
    }
    return std::nullopt;
}

/// Merge the exact outcome with the seeded incumbent. The exact search
/// only explored strictly better makespans, so:
///  * a solution of its own wins (it beats the seed);
///  * Unsat means nothing better exists -- the seed was optimal;
///  * Timeout means nothing proved either way -- anytime fallback.
/// The seed returned in the other cases carries the exact search's work and
/// worker reports.
Schedule merge_with_seed(Schedule seed, Schedule exact) {
    switch (exact.status) {
        case cp::SolveStatus::Optimal:
        case cp::SolveStatus::SatTimeout:
            if (!exact.start.empty() && exact.makespan <= seed.makespan) return exact;
            // Defensive: a root-propagated solution records before the
            // cutoff applies; never return anything worse than the seed.
            seed.status = exact.status == cp::SolveStatus::Optimal
                              ? cp::SolveStatus::Optimal
                              : cp::SolveStatus::HeuristicFallback;
            break;
        case cp::SolveStatus::Unsat:
            seed.status = cp::SolveStatus::Optimal;
            break;
        case cp::SolveStatus::Timeout:
        case cp::SolveStatus::HeuristicFallback:
            break;
    }
    seed.workers = std::move(exact.workers);
    static_cast<cp::SolveWork&>(seed) = std::move(exact);
    return seed;
}

}  // namespace

model::KernelModel lower_for_schedule(const ir::Graph& g, const ScheduleOptions& options) {
    const arch::ArchSpec& spec = options.spec;
    const int num_slots =
        options.num_slots < 0 ? spec.memory.slots() : options.num_slots;
    if (options.memory_allocation && num_slots > spec.memory.slots()) {
        throw Error("num_slots exceeds the architecture's memory");
    }

    int horizon = derive_horizon(spec, g);
    if (!options.fixed_starts.empty()) {
        // Slot-only mode: the horizon must cover the supplied schedule.
        int fixed_end = 0;
        for (const ir::Node& node : g.nodes()) {
            const ir::NodeTiming t = ir::node_timing(spec, node);
            fixed_end = std::max(fixed_end,
                                 options.fixed_starts[static_cast<std::size_t>(node.id)] +
                                     t.latency);
        }
        horizon = std::max(horizon, fixed_end + 2);
    }

    model::LowerOptions lo;
    lo.num_slots = num_slots;
    lo.horizon = horizon;
    lo.memory_allocation = options.memory_allocation;
    lo.three_phase_search = options.three_phase_search;
    lo.enforce_port_limits = options.enforce_port_limits;
    lo.lifetime_includes_last_read = options.lifetime_includes_last_read;
    lo.fixed_starts = options.fixed_starts;
    return model::lower_ir(spec, g, lo);
}

ModelSolveOptions model_solve_options(const ScheduleOptions& options) {
    ModelSolveOptions mo;
    mo.timeout_ms = options.timeout_ms;
    mo.warm_start = options.warm_start;
    mo.heuristic_only = options.heuristic_only;
    mo.solver = options.solver;
    mo.lns = options.lns;
    return mo;
}

Schedule schedule_model(const model::KernelModel& model_in, const ModelSolveOptions& options) {
    obs::TraceBuffer* const trace =
        options.trace != nullptr
            ? options.trace
            : (options.solver.trace != nullptr ? options.solver.trace->main() : nullptr);

    // Service-correlated solves open with the request id so a pool worker's
    // shared track is filterable per request; standalone runs (rid 0) emit
    // nothing extra and stay byte-identical.
    const std::int64_t rid = options.solver.trace_rid;
    if (rid != 0) obs::instant(trace, obs::TraceLevel::Phase, "rid", "rid", rid);

    if (model_in.memory_allocation && model_in.num_slots <= 0 && !model_in.vdata.empty()) {
        Schedule infeasible;
        infeasible.status = cp::SolveStatus::Unsat;
        return infeasible;
    }

    // Heuristic layer: a verified list-schedule + greedy-allocation
    // solution. Seeds the exact search's incumbent (warm start) and is the
    // anytime fallback when the exact search finds nothing in time. Not
    // used in slot-only mode (the makespan there is fixed by the caller).
    std::optional<Schedule> heuristic;
    if ((options.warm_start || options.heuristic_only) && model_in.fixed_starts.empty()) {
        heuristic = heuristic_schedule(model_in, trace);
    }
    if (options.heuristic_only) {
        if (heuristic.has_value()) return *heuristic;
        Schedule none;
        none.status = cp::SolveStatus::Timeout;  // found nothing, proved nothing
        return none;
    }

    // An externally supplied incumbent (DESIGN §5k: an adapted near-cache
    // donor) may replace the heuristic as the warm seed — but only after
    // it re-verifies clean against *this* model with the port limits
    // enforced, and only when it is strictly better. Everything downstream
    // (horizon raise, shared bound, anytime merge) then treats it exactly
    // like a heuristic schedule.
    if (options.incumbent.has_value() && options.warm_start &&
        model_in.fixed_starts.empty()) {
        const IncumbentSeed& seed = *options.incumbent;
        bool adopted = false;
        if (static_cast<int>(seed.start.size()) == model_in.num_nodes() &&
            (!heuristic.has_value() || seed.makespan < heuristic->makespan)) {
            model::KernelModel checked = model_in;
            checked.enforce_port_limits = true;
            if (model::check_schedule(checked, seed.start, seed.slot, seed.makespan)
                    .empty()) {
                Schedule s;
                s.start = seed.start;
                s.slot = seed.slot;
                s.makespan = seed.makespan;
                s.slots_used = seed.slots_used;
                s.status = cp::SolveStatus::HeuristicFallback;
                heuristic = std::move(s);
                adopted = true;
            }
        }
        obs::instant(trace, obs::TraceLevel::Phase, "incumbent_seed", "adopted",
                     adopted ? 1 : 0, "makespan", seed.makespan);
    }

    // Let the exact search prove optimality across the whole gap: the
    // derived horizon could in principle sit below the heuristic makespan,
    // and Unsat must mean "nothing better anywhere". The raise reproduces
    // what re-lowering at the larger horizon would build (uniform ALAP
    // shift, modulo max_stage recomputed).
    const model::KernelModel* km = &model_in;
    model::KernelModel raised;
    if (heuristic.has_value() && heuristic->makespan + 1 > model_in.horizon) {
        raised = model::with_horizon(
            model_in,
            std::max(heuristic->makespan + 1, model_in.critical_path));
        km = &raised;
    }

    cp::SolverConfig solver = options.solver;
    if (heuristic.has_value()) solver.initial_incumbent = heuristic->makespan;
    if (!km->fixed_starts.empty()) {
        // Slot-only mode: every start is pinned, so there is no
        // neighbourhood to relax.
        solver.lns_workers = 0;
    }
    if (solver.lns_workers > 0) {
        // Build the round hook over the same lowered model the CP workers
        // search; complete the heuristic schedule into a full store
        // assignment so LNS rounds can start before any CP worker publishes
        // a solution of its own.
        solver.lns_round = lns::make_portfolio_round(*km, options.lns);
        if (heuristic.has_value()) {
            solver.lns_seed_assignment =
                lns::complete_assignment(*km, heuristic->start, heuristic->slot);
        }
    }

    cp::SearchOptions search_opts;
    search_opts.deadline = Deadline::after_ms(options.timeout_ms);
    search_opts.trace = trace;

    // One emission supplies the variable handles for extraction and the
    // store worker 0 searches. Further portfolio workers re-emit the same
    // model into their own stores through the builder hook (emission is
    // deterministic, so this table's handles index any worker's solution).
    cp::Store store;
    obs::span_begin(trace, obs::TraceLevel::Phase, "emit_cp");
    model::VarTable m = model::emit_cp(store, *km);
    obs::span_end(trace, obs::TraceLevel::Phase, "emit_cp", "vars",
                  static_cast<std::int64_t>(store.num_vars()), "props",
                  static_cast<std::int64_t>(store.num_propagators()));

    obs::span_begin(trace, obs::TraceLevel::Phase, "search", "threads", solver.threads,
                    rid != 0 ? "rid" : nullptr, rid);
    const model::KernelModel& worker_model = *km;
    cp::PortfolioResult result = cp::solve_portfolio(
        store, cp::PostedModel{std::move(m.phases), m.makespan},
        [&worker_model](cp::Store& s) {
            model::VarTable worker = model::emit_cp(s, worker_model);
            return cp::PostedModel{std::move(worker.phases), worker.makespan};
        },
        solver, search_opts);
    Schedule sched = extract_schedule(*km, m, result);
    sched.workers = std::move(result.workers);
    if (heuristic.has_value()) sched = merge_with_seed(std::move(*heuristic), std::move(sched));
    obs::span_end(trace, obs::TraceLevel::Phase, "search", "nodes", sched.stats.nodes,
                  "makespan", sched.makespan);
    return sched;
}

Schedule schedule_kernel(const ir::Graph& g, const ScheduleOptions& options) {
    options.spec.validate();
    ir::validate_graph(g);

    obs::TraceBuffer* const trace =
        options.solver.trace != nullptr ? options.solver.trace->main() : nullptr;
    obs::SpanScope schedule_span(trace, obs::TraceLevel::Phase, "schedule", "nodes",
                                 g.num_nodes());

    obs::span_begin(trace, obs::TraceLevel::Phase, "lower");
    const model::KernelModel km = lower_for_schedule(g, options);
    obs::span_end(trace, obs::TraceLevel::Phase, "lower");

    ModelSolveOptions mo = model_solve_options(options);
    mo.trace = trace;
    return schedule_model(km, mo);
}

}  // namespace revec::sched
