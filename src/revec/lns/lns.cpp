#include "revec/lns/lns.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <utility>

#include "revec/cp/store.hpp"
#include "revec/model/check.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/obs/metrics.hpp"
#include "revec/obs/trace.hpp"
#include "revec/support/assert.hpp"

namespace revec::lns {

namespace {

/// Selector rotation: round r uses kSelectors[r % 3].
constexpr Selector kSelectors[] = {Selector::RandomSlice, Selector::CriticalPathWindow,
                                   Selector::ResourceHotRow};

Selector selector_for(std::int64_t round) {
    return kSelectors[static_cast<std::size_t>(round) % std::size(kSelectors)];
}

/// One relax/repair round. `best` is the repair solve's full store
/// assignment (var parity with the unfrozen emission), which the portfolio
/// hook publishes as the shared incumbent. The SolveWork part is the
/// repair solve's work.
struct RoundOutcome : cp::SolveWork {
    bool accepted = false;
    std::vector<int> start;
    std::vector<int> slot;
    std::vector<int> best;
    int makespan = 0;
};

RoundOutcome run_round(const model::KernelModel& base, const std::vector<int>& inc_start,
                       int inc_makespan, Selector selector, const LnsTuning& tuning,
                       XorShift& rng, const Deadline& deadline,
                       const std::atomic<bool>* stop, bool profile,
                       obs::TraceBuffer* trace, std::int64_t trace_rid) {
    RoundOutcome out;
    const int n = base.num_nodes();
    // Rounds on a service request's behalf carry its rid; standalone runs
    // (rid 0) emit the payload-free span as before.
    obs::SpanScope round_span(trace, obs::TraceLevel::Phase, "lns_round",
                              trace_rid != 0 ? "rid" : nullptr, trace_rid);

    std::vector<int> relaxed;
    {
        obs::SpanScope relax_span(trace, obs::TraceLevel::Phase, "relax");
        relaxed = select_neighbourhood(base, inc_start, selector, tuning.relax_pct, rng);
        relax_span.result("relaxed", static_cast<std::int64_t>(relaxed.size()));
    }

    // Freeze everything at the incumbent, then re-open the neighbourhood.
    model::KernelModel sub = base;
    sub.frozen_starts.assign(static_cast<std::size_t>(n), -1);
    for (int id = 0; id < n; ++id) {
        sub.frozen_starts[static_cast<std::size_t>(id)] =
            inc_start[static_cast<std::size_t>(id)];
    }
    for (const int id : relaxed) sub.frozen_starts[static_cast<std::size_t>(id)] = -1;

    {
        obs::SpanScope repair_span(trace, obs::TraceLevel::Phase, "repair");
        cp::Store store;
        if (profile) store.enable_profiling();
        model::VarTable vt = model::emit_cp(store, sub);
        // A frozen value outside the model bounds, or no room below the
        // incumbent, just rejects the round — the incumbent stays.
        if (!vt.infeasible && store.set_max(vt.makespan, inc_makespan - 1)) {
            cp::SearchOptions opts;
            opts.deadline = deadline;
            opts.max_failures = tuning.repair_failures;
            opts.stop = stop;
            opts.trace = trace;
            cp::SolveResult r = cp::solve(store, vt.phases, vt.makespan, opts);
            out.absorb(r);
            if (r.has_solution()) {
                out.start.resize(static_cast<std::size_t>(n));
                out.slot.assign(static_cast<std::size_t>(n), -1);
                for (int id = 0; id < n; ++id) {
                    out.start[static_cast<std::size_t>(id)] =
                        r.value_of(vt.start[static_cast<std::size_t>(id)]);
                }
                for (const auto& [id, var] : vt.slot_of) {
                    out.slot[static_cast<std::size_t>(id)] = r.value_of(var);
                }
                out.makespan = r.value_of(vt.makespan);
                // Acceptance gate: strictly improving AND clean against the
                // base model's own checker — a repair bug can never corrupt
                // the incumbent.
                out.accepted =
                    out.makespan < inc_makespan &&
                    model::check_schedule(base, out.start, out.slot, out.makespan).empty();
                if (out.accepted) out.best = std::move(r.best);
            }
        }
        repair_span.result("accepted", out.accepted ? 1 : 0, "makespan",
                           out.accepted ? out.makespan : inc_makespan);
    }

    obs::instant(trace, obs::TraceLevel::Phase, out.accepted ? "lns_accept" : "lns_reject",
                 "makespan", out.accepted ? out.makespan : inc_makespan);
    round_span.result("accepted", out.accepted ? 1 : 0, "relaxed",
                      static_cast<std::int64_t>(relaxed.size()));
    return out;
}

}  // namespace

void LnsResult::export_metrics(obs::MetricsRegistry& m, const std::string& prefix) const {
    m.add(prefix + "rounds", rounds);
    m.add(prefix + "accepted", accepted);
    m.add(prefix + "rejected", rejected);
    m.set(prefix + "improved", improved ? 1 : 0);
    m.set(prefix + "makespan", makespan);
    cp::export_counters(stats, m, prefix + "repair.");
}

LnsResult improve_schedule(const model::KernelModel& m, const std::vector<int>& start,
                           const std::vector<int>& slot, int makespan,
                           const LnsOptions& options) {
    REVEC_EXPECTS(!m.modulo.has_value());
    REVEC_EXPECTS(m.fixed_starts.empty());
    REVEC_EXPECTS(m.frozen_starts.empty());
    REVEC_EXPECTS(start.size() == static_cast<std::size_t>(m.num_nodes()));

    LnsResult res;
    res.start = start;
    res.slot = slot;
    res.slot.resize(static_cast<std::size_t>(m.num_nodes()), -1);
    res.makespan = makespan;

    XorShift rng(options.seed);
    while (options.max_rounds < 0 || res.rounds < options.max_rounds) {
        if (options.deadline.expired()) break;
        if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed)) break;
        // The critical path is a proven lower bound: once reached, no round
        // can accept, so stop instead of burning the budget.
        if (res.makespan <= m.critical_path) break;
        RoundOutcome out = run_round(m, res.start, res.makespan, selector_for(res.rounds),
                                     options.tuning, rng, options.deadline, options.stop,
                                     /*profile=*/false, options.trace, /*trace_rid=*/0);
        ++res.rounds;
        cp::merge_counters(res.stats, out.stats);
        if (out.accepted) {
            ++res.accepted;
            res.improved = true;
            res.start = std::move(out.start);
            res.slot = std::move(out.slot);
            res.makespan = out.makespan;
            res.incumbent_trail.push_back(out.makespan);
        } else {
            ++res.rejected;
        }
    }
    for (const int s : res.slot) res.slots_used = std::max(res.slots_used, s + 1);
    return res;
}

cp::LnsRoundFn make_portfolio_round(const model::KernelModel& m, const LnsTuning& tuning) {
    REVEC_EXPECTS(!m.modulo.has_value());
    REVEC_EXPECTS(m.fixed_starts.empty());
    REVEC_EXPECTS(m.frozen_starts.empty());

    // Capture the model plus one scratch emission's handle table up front:
    // emission is deterministic, so these handles index the incumbent
    // assignments every CP worker publishes.
    struct State {
        model::KernelModel m;
        LnsTuning tuning;
        std::vector<cp::IntVar> start;
        cp::IntVar makespan;
        std::size_t num_vars = 0;
    };
    auto st = std::make_shared<State>();
    st->m = m;
    st->tuning = tuning;
    {
        cp::Store scratch;
        model::VarTable vt = model::emit_cp(scratch, st->m);
        REVEC_EXPECTS(!vt.infeasible);
        st->start = std::move(vt.start);
        st->makespan = vt.makespan;
        st->num_vars = scratch.num_vars();
    }
    std::shared_ptr<const State> state = std::move(st);

    return [state](const cp::LnsRoundContext& ctx) -> cp::LnsRoundResult {
        cp::LnsRoundResult out;
        const std::vector<int>& inc = *ctx.incumbent;
        if (inc.size() != state->num_vars) return out;  // defensive: wrong model
        const int n = state->m.num_nodes();
        std::vector<int> inc_start(static_cast<std::size_t>(n));
        for (int id = 0; id < n; ++id) {
            inc_start[static_cast<std::size_t>(id)] =
                inc[static_cast<std::size_t>(state->start[static_cast<std::size_t>(id)].index())];
        }
        const int inc_makespan =
            inc[static_cast<std::size_t>(state->makespan.index())];
        if (inc_makespan <= state->m.critical_path) return out;  // proven floor

        XorShift rng(ctx.seed);
        RoundOutcome r = run_round(state->m, inc_start, inc_makespan, selector_for(ctx.round),
                                   state->tuning, rng, ctx.deadline, ctx.stop, ctx.profile,
                                   ctx.trace, ctx.trace_rid);
        out.absorb(r);
        if (r.accepted) {
            out.improved = true;
            out.assignment = std::move(r.best);
            out.objective = r.makespan;
        }
        return out;
    };
}

std::vector<int> complete_assignment(const model::KernelModel& m,
                                     const std::vector<int>& start,
                                     const std::vector<int>& slot) {
    REVEC_EXPECTS(start.size() == static_cast<std::size_t>(m.num_nodes()));
    cp::Store store;
    model::VarTable vt = model::emit_cp(store, m);
    if (vt.infeasible) return {};
    for (int id = 0; id < m.num_nodes(); ++id) {
        if (!store.assign(vt.start[static_cast<std::size_t>(id)],
                          start[static_cast<std::size_t>(id)])) {
            return {};
        }
    }
    for (const auto& [id, var] : vt.slot_of) {
        const auto i = static_cast<std::size_t>(id);
        if (i < slot.size() && slot[i] >= 0) {
            if (!store.assign(var, slot[i])) return {};
        }
    }
    cp::SolveResult r = cp::satisfy(store, vt.phases);
    return r.has_solution() ? std::move(r.best) : std::vector<int>{};
}

}  // namespace revec::lns
