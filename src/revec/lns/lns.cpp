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

/// The base model emitted once: every repair round solves a clone of
/// `store`, whose handles are `vt`.
struct Emission {
    explicit Emission(const model::KernelModel& m) : vt(model::emit_cp(store, m)) {}
    Emission(cp::Store s, model::VarTable t) : store(std::move(s)), vt(std::move(t)) {}

    cp::Store store;
    model::VarTable vt;
};

/// One relax/repair round. `best` is the repair solve's full store
/// assignment (a clone's, so it indexes the base emission's handles), which
/// the portfolio hook publishes as the shared incumbent. The SolveWork part
/// is the repair solve's work.
struct RoundOutcome : cp::SolveWork {
    bool accepted = false;
    std::vector<int> start;
    std::vector<int> slot;
    std::vector<int> best;
    int makespan = 0;
};

RoundOutcome run_round(const model::KernelModel& base, const Emission& emission,
                       const std::vector<int>& inc_start, int inc_makespan,
                       Selector selector, const LnsTuning& tuning,
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

    {
        obs::SpanScope repair_span(trace, obs::TraceLevel::Phase, "repair");
        const model::VarTable& vt = emission.vt;
        cp::Store store = emission.store.clone();
        if (profile) store.enable_profiling();
        // A frozen value outside the model bounds, or no room below the
        // incumbent, just rejects the round — the incumbent stays.
        if (freeze_for_repair(store, vt, inc_start, relaxed, inc_makespan)) {
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

bool freeze_for_repair(cp::Store& store, const model::VarTable& vt,
                       const std::vector<int>& inc_start, const std::vector<int>& relaxed,
                       int inc_makespan) {
    REVEC_EXPECTS(inc_start.size() == vt.start.size());
    std::vector<char> open(vt.start.size(), 0);
    for (const int id : relaxed) open.at(static_cast<std::size_t>(id)) = 1;
    for (std::size_t i = 0; i < vt.start.size(); ++i) {
        if (open[i] == 0 && !store.assign(vt.start[i], inc_start[i])) return false;
    }
    return store.set_max(vt.makespan, inc_makespan - 1);
}

LnsResult improve_schedule(const model::KernelModel& m, const std::vector<int>& start,
                           const std::vector<int>& slot, int makespan,
                           const LnsOptions& options) {
    REVEC_EXPECTS(!m.modulo.has_value());
    REVEC_EXPECTS(m.fixed_starts.empty());
    REVEC_EXPECTS(start.size() == static_cast<std::size_t>(m.num_nodes()));

    LnsResult res;
    res.start = start;
    res.slot = slot;
    res.slot.resize(static_cast<std::size_t>(m.num_nodes()), -1);
    res.makespan = makespan;

    const Emission emission(m);
    // A proven floor (at least the critical path): once reached, no round
    // can accept, so stop instead of burning the budget.
    const int lower_bound = model::makespan_lower_bound(m).value();
    XorShift rng(options.seed);
    while (options.max_rounds < 0 || res.rounds < options.max_rounds) {
        if (options.deadline.expired()) break;
        if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed)) break;
        if (res.makespan <= lower_bound) break;
        RoundOutcome out = run_round(m, emission, res.start, res.makespan,
                                     selector_for(res.rounds), options.tuning, rng,
                                     options.deadline, options.stop, /*profile=*/false,
                                     options.trace, /*trace_rid=*/0);
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

cp::LnsRoundFn make_portfolio_round(const model::KernelModel& m, cp::Store base,
                                    model::VarTable vt, const LnsTuning& tuning) {
    REVEC_EXPECTS(!m.modulo.has_value());
    REVEC_EXPECTS(m.fixed_starts.empty());

    // Capture the model and the caller's emission: every round clones that
    // store (concurrently from several LNS workers — clone only reads it),
    // and its handles index the incumbent assignments every CP worker
    // publishes.
    struct State {
        model::KernelModel m;
        LnsTuning tuning;
        Emission emission;
        int lower_bound;  ///< model::makespan_lower_bound: the proven floor
    };
    auto state = std::make_shared<const State>(
        State{m, tuning, Emission(std::move(base), std::move(vt)),
              model::makespan_lower_bound(m).value()});

    return [state](const cp::LnsRoundContext& ctx) -> cp::LnsRoundResult {
        cp::LnsRoundResult out;
        const std::vector<int>& inc = *ctx.incumbent;
        const model::VarTable& vt = state->emission.vt;
        if (inc.size() != state->emission.store.num_vars()) return out;  // wrong model
        std::vector<int> inc_start(vt.start.size());
        for (std::size_t id = 0; id < vt.start.size(); ++id) {
            inc_start[id] = inc[static_cast<std::size_t>(vt.start[id].index())];
        }
        const int inc_makespan = inc[static_cast<std::size_t>(vt.makespan.index())];
        if (inc_makespan <= state->lower_bound) return out;  // proven floor

        XorShift rng(ctx.seed);
        RoundOutcome r = run_round(state->m, state->emission, inc_start, inc_makespan,
                                   selector_for(ctx.round), state->tuning, rng, ctx.deadline,
                                   ctx.stop, ctx.profile, ctx.trace, ctx.trace_rid);
        out.absorb(r);
        if (r.accepted) {
            out.improved = true;
            out.assignment = std::move(r.best);
            out.objective = r.makespan;
        }
        return out;
    };
}

std::vector<int> complete_assignment(cp::Store store, const model::VarTable& vt,
                                     const std::vector<int>& start,
                                     const std::vector<int>& slot) {
    REVEC_EXPECTS(start.size() == vt.start.size());
    if (vt.infeasible) return {};
    for (std::size_t id = 0; id < start.size(); ++id) {
        if (!store.assign(vt.start[id], start[id])) return {};
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
