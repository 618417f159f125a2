#include "revec/pipeline/modulo.hpp"

#include <algorithm>
#include <map>

#include "revec/heur/ims.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/obs/trace.hpp"
#include "revec/sched/schedule.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::pipeline {

namespace {

using cp::IntVar;

/// The II scan gives up beyond this initiation interval.
constexpr int kMaxIi = 512;

int ii_lower_bound_for(const model::KernelModel& m) {
    // Each residue cycle hosts a single vector configuration with at most
    // vector_lanes lanes, one scalar issue per scalar unit, and one
    // index/merge issue per unit.
    std::map<int, int> lane_demand;  // config id -> total lanes
    int scalar_ops = 0;
    int ix_ops = 0;
    for (const int op : m.ops) {
        const model::ModelNode& node = m.node(op);
        if (node.lanes > 0) {
            lane_demand[node.config] += node.lanes;
        } else if (node.unit == model::Unit::Scalar) {
            ++scalar_ops;
        } else {
            ++ix_ops;
        }
    }
    int vec_bound = 0;
    for (const auto& [config, demand] : lane_demand) {
        vec_bound += (demand + m.caps.vector_lanes - 1) / m.caps.vector_lanes;
    }
    const int scalar_bound = (scalar_ops + m.caps.scalar_units - 1) / m.caps.scalar_units;
    const int ix_bound = (ix_ops + m.caps.index_merge_units - 1) / m.caps.index_merge_units;
    return std::max({1, vec_bound, scalar_bound, ix_bound});
}

int count_kernel_reconfigs_for(const model::KernelModel& m, const std::vector<int>& residue,
                               int ii) {
    REVEC_EXPECTS(ii > 0);
    // Occupied vector residues, in cyclic order, with their configuration.
    std::map<int, int> config_at;  // residue -> config id
    for (const int op : m.vector_ops) {
        const int r = residue[static_cast<std::size_t>(op)];
        REVEC_EXPECTS(r >= 0 && r < ii);
        const auto [it, inserted] = config_at.emplace(r, m.node(op).config);
        REVEC_EXPECTS(inserted || it->second == m.node(op).config);
    }
    if (config_at.size() <= 1) return 0;
    // Walk the occupied residues cyclically; nops hold the configuration.
    int changes = 0;
    int prev = config_at.rbegin()->second;  // wrap-around predecessor
    for (const auto& [r, config] : config_at) {
        if (config != prev) ++changes;
        prev = config;
    }
    return changes;
}

/// One decision-problem solve for a candidate II. When `minimize_reconfigs`
/// the model contains per-residue configuration variables and minimizes the
/// cyclic change count R; otherwise it is a pure feasibility problem.
struct IiAttempt {
    cp::SolveResult result;
    std::vector<IntVar> residue_vars;  // parallel to all nodes (invalid for data)
    std::vector<IntVar> stage_vars;
    IntVar reconfig_count;  // valid only when minimizing reconfigs
};

IiAttempt try_ii(const arch::ArchSpec& spec, const ir::Graph& g, int ii, int horizon,
                 bool minimize_reconfigs, int reconfig_budget, const Deadline& deadline,
                 const cp::SolverConfig& solver) {
    obs::TraceBuffer* const trace =
        solver.trace != nullptr ? solver.trace->main() : nullptr;
    obs::SpanScope span(trace, obs::TraceLevel::Phase, "try_ii", "ii", ii);

    // Lower once per candidate II (the wrap is part of the model) and emit
    // it for worker 0; further portfolio workers re-emit it into stores of
    // their own. Emission is deterministic, so this table's handles index
    // any worker's solution.
    model::LowerOptions lo;
    lo.horizon = horizon;
    lo.modulo = model::ModuloWrap{ii, 0, minimize_reconfigs, reconfig_budget};
    const model::KernelModel km = model::lower_ir(spec, g, lo);

    cp::Store store;
    model::VarTable m = model::emit_cp(store, km);
    span.result("vars", static_cast<std::int64_t>(store.num_vars()), "props",
                static_cast<std::int64_t>(store.num_propagators()));

    IiAttempt attempt;
    attempt.residue_vars = m.residue;
    attempt.stage_vars = m.stage;
    attempt.reconfig_count = m.reconfig_count;
    if (m.infeasible) {
        attempt.result.status = cp::SolveStatus::Unsat;
        return attempt;
    }

    cp::SearchOptions opts;
    opts.deadline = deadline;
    opts.trace = trace;
    const auto objective_of = [minimize_reconfigs](const model::VarTable& t) {
        return minimize_reconfigs && t.reconfig_count.valid() ? t.reconfig_count : IntVar();
    };
    attempt.result = cp::solve_portfolio(
        store, cp::PostedModel{std::move(m.phases), objective_of(m)},
        [&](cp::Store& s) {
            model::VarTable worker = model::emit_cp(s, km);
            return cp::PostedModel{std::move(worker.phases), objective_of(worker)};
        },
        solver, opts);
    return attempt;
}

}  // namespace

int ii_lower_bound(const arch::ArchSpec& spec, const ir::Graph& g) {
    return ii_lower_bound_for(model::lower_ir(spec, g));
}

int count_kernel_reconfigs(const arch::ArchSpec& spec, const ir::Graph& g,
                           const std::vector<int>& residue, int ii) {
    return count_kernel_reconfigs_for(model::lower_ir(spec, g), residue, ii);
}

ModuloResult modulo_schedule(const ir::Graph& g, const ModuloOptions& options) {
    options.spec.validate();
    const arch::ArchSpec& spec = options.spec;
    const Stopwatch watch;
    const Deadline deadline = Deadline::after_ms(options.timeout_ms);

    obs::TraceBuffer* const trace =
        options.solver.trace != nullptr ? options.solver.trace->main() : nullptr;
    obs::SpanScope modulo_span(trace, obs::TraceLevel::Phase, "modulo", "nodes",
                               g.num_nodes());

    // LNS relaxes flat, unpinned schedules only: the per-II searches run
    // CP workers alone.
    cp::SolverConfig solver = options.solver;
    solver.lns_workers = 0;

    // One base lowering (no wrap) feeds the bound, the IMS warm start, and
    // the reconfiguration counting; the per-II exact models are lowered
    // inside try_ii with their wrap attached.
    const model::KernelModel base = model::lower_ir(spec, g);

    ModuloResult best;
    best.ii_lower_bound = ii_lower_bound_for(base);
    // Generous flat-time horizon: a kernel under a tight II can stretch a
    // single iteration well past its standalone makespan.
    const int horizon = 2 * sched::list_schedule(spec, g).makespan + 2 * spec.vector_latency;

    const auto extract = [&](const IiAttempt& attempt, int ii) {
        best.initial_ii = ii;
        best.residue.assign(static_cast<std::size_t>(g.num_nodes()), -1);
        best.stage.assign(static_cast<std::size_t>(g.num_nodes()), -1);
        for (const int op : base.ops) {
            const auto i = static_cast<std::size_t>(op);
            best.residue[i] = attempt.result.value_of(attempt.residue_vars[i]);
            best.stage[i] = attempt.result.value_of(attempt.stage_vars[i]);
        }
        best.reconfigs = count_kernel_reconfigs_for(base, best.residue, ii);
        best.actual_ii = ii + best.reconfigs * spec.reconfig_cycles;
        best.throughput = 1.0 / best.actual_ii;
    };

    // Heuristic IMS kernel: a feasible II upper bound that cuts the exact
    // scan short and stands in as the anytime fallback on timeout.
    heur::ImsResult ims;
    if (options.warm_start || options.heuristic_only) {
        obs::SpanScope ims_span(trace, obs::TraceLevel::Phase, "ims");
        heur::ImsOptions ims_opts;
        ims_opts.min_ii = best.ii_lower_bound;
        ims_opts.max_ii = kMaxIi;
        ims = heur::iterative_modulo_schedule(base, ims_opts);
        ims_span.result("ii", ims.ok ? ims.ii : -1);
    }
    const auto extract_ims = [&](cp::SolveStatus status) {
        best.initial_ii = ims.ii;
        best.residue = ims.residue;
        best.stage = ims.stage;
        best.reconfigs = count_kernel_reconfigs_for(base, best.residue, ims.ii);
        best.actual_ii = ims.ii + best.reconfigs * spec.reconfig_cycles;
        best.throughput = 1.0 / best.actual_ii;
        best.status = status;
    };
    if (options.heuristic_only) {
        if (ims.ok) {
            // An IMS kernel at the resource lower bound is provably optimal
            // in II (reconfigurations are post-processed either way).
            extract_ims(!options.include_reconfigs && ims.ii == best.ii_lower_bound
                            ? cp::SolveStatus::Optimal
                            : cp::SolveStatus::HeuristicFallback);
        } else {
            best.status = cp::SolveStatus::Timeout;
        }
        best.time_ms = watch.elapsed_ms();
        return best;
    }

    if (!options.include_reconfigs) {
        // Smallest feasible II, reconfigurations post-processed. With an
        // IMS kernel in hand only IIs strictly below it need the exact
        // solver; exhausting them all proves the IMS kernel optimal.
        const int scan_end = ims.ok ? ims.ii - 1 : kMaxIi;
        bool timed_out = false;
        for (int ii = best.ii_lower_bound; ii <= scan_end; ++ii) {
            if (deadline.expired()) {
                timed_out = true;
                break;
            }
            const IiAttempt attempt =
                try_ii(spec, g, ii, horizon, false, 0, deadline, solver);
            best.absorb(attempt.result);
            if (attempt.result.has_solution()) {
                extract(attempt, ii);
                best.status = cp::SolveStatus::Optimal;
                break;
            }
            if (attempt.result.status == cp::SolveStatus::Timeout) {
                timed_out = true;
                break;
            }
        }
        if (best.residue.empty() && ims.ok) {
            // No exact solution below the IMS II: proven optimal when the
            // scan ran to completion, anytime fallback when it timed out.
            extract_ims(timed_out ? cp::SolveStatus::HeuristicFallback
                                  : cp::SolveStatus::Optimal);
        } else if (best.residue.empty() && timed_out) {
            best.status = cp::SolveStatus::Timeout;
        }
        best.time_ms = watch.elapsed_ms();
        return best;
    }

    // Reconfiguration-aware: minimize II + R * reconfig_cycles. The IMS
    // kernel seeds the incumbent so the budget pruning bites from the
    // first II on. No II is lowered or emitted whose R range is empty
    // (below the floor), which the model would only declare infeasible.
    // The resource bound already keeps II at or above the floor: every
    // configuration needs a residue of its own.
    const int r_floor = model::modulo_reconfig_floor(base);
    int best_actual = INT32_MAX;
    bool best_is_ims = false;
    if (ims.ok) {
        extract_ims(cp::SolveStatus::HeuristicFallback);
        best_actual = best.actual_ii;
        best_is_ims = true;
    }
    for (int ii = best.ii_lower_bound; ii <= kMaxIi; ++ii) {
        if (ii >= best_actual) break;  // R >= 0: no larger II can win
        if (deadline.expired()) break;
        // Only R values that could improve on the incumbent are relevant.
        const int budget =
            best_actual == INT32_MAX
                ? g.num_nodes()
                : std::max(0, (best_actual - 1 - ii) / std::max(1, spec.reconfig_cycles));
        // The budget only shrinks as II grows: once it is below the floor,
        // no later II can beat the incumbent either.
        if (budget < r_floor) break;
        const IiAttempt attempt =
            try_ii(spec, g, ii, horizon, true, budget, deadline, solver);
        best.absorb(attempt.result);
        if (!attempt.result.has_solution()) continue;
        const int r = attempt.result.value_of(attempt.reconfig_count);
        const int actual = ii + r * spec.reconfig_cycles;
        if (actual < best_actual) {
            best_actual = actual;
            extract(attempt, ii);
            // extract() recomputes reconfigs from residues; the model's R may
            // be lower than the naive count when nop interpolation helps, so
            // trust the model's value.
            best.reconfigs = r;
            best.actual_ii = actual;
            best.throughput = 1.0 / actual;
            best.status = attempt.result.status == cp::SolveStatus::Optimal
                              ? cp::SolveStatus::Optimal
                              : cp::SolveStatus::SatTimeout;
            best_is_ims = false;
        }
    }
    if (best_actual == INT32_MAX) {
        best.status = deadline.expired() ? cp::SolveStatus::Timeout : cp::SolveStatus::Unsat;
    } else if (best_is_ims) {
        // Nothing beat the IMS kernel: a completed scan proves it optimal.
        if (!deadline.expired()) best.status = cp::SolveStatus::Optimal;
    }
    best.time_ms = watch.elapsed_ms();
    return best;
}

}  // namespace revec::pipeline
