#include "revec/cp/search.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "revec/obs/metrics.hpp"
#include "revec/obs/trace.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/rng.hpp"

namespace revec::cp {

namespace {

constexpr std::int64_t kNoBound = std::numeric_limits<std::int64_t>::max();

/// Failure-limited restarts: the first run may fail kRestartFailures times,
/// each later run twice as often plus one. The geometric growth keeps the
/// search complete: the limit eventually exceeds any finite tree.
constexpr std::int64_t kRestartFailures = 512;

/// Pick the branching variable of a phase, or invalid if all are fixed.
IntVar pick_var(const Store& s, const Phase& phase) {
    IntVar best;
    std::int64_t best_key = 0;
    for (const IntVar x : phase.vars) {
        if (s.fixed(x)) continue;
        if (phase.var_select == VarSelect::InputOrder) return x;
        const std::int64_t key =
            phase.var_select == VarSelect::SmallestMin ? s.min(x) : s.size(x);
        if (!best.valid() || key < best_key) {
            best = x;
            best_key = key;
        }
    }
    return best;
}

/// The `target`-th smallest value of a domain: skips whole runs by their
/// length instead of stepping value by value.
int nth_value(const Domain& d, std::int64_t target) {
    Interval r{};
    const int last = d.max();
    std::int64_t from = d.min();
    std::int64_t remaining = target;
    while (from <= last && d.next_run(static_cast<int>(from), r)) {
        const std::int64_t len = static_cast<std::int64_t>(r.hi) - r.lo + 1;
        if (remaining < len) return static_cast<int>(r.lo + remaining);
        remaining -= len;
        from = static_cast<std::int64_t>(r.hi) + 1;
    }
    return d.min();  // target >= size(): same fallback as the linear walk
}

int pick_value(const Store& s, const Phase& phase, IntVar x, XorShift* jitter) {
    const Domain& d = s.dom(x);
    if (jitter != nullptr && d.size() > 1 && jitter->below(4) == 0) {
        const auto span = static_cast<int>(std::min<std::int64_t>(d.size(), 1 << 20));
        return nth_value(d, jitter->below(span));
    }
    switch (phase.val_select) {
        case ValSelect::Min: return d.min();
        case ValSelect::Max: return d.max();
    }
    REVEC_UNREACHABLE("bad ValSelect");
}

struct Decision {
    IntVar var;
    int value;
};

std::optional<Decision> choose(const Store& s, const std::vector<Phase>& phases,
                               XorShift* jitter) {
    for (const Phase& phase : phases) {
        const IntVar x = pick_var(s, phase);
        if (x.valid()) return Decision{x, pick_value(s, phase, x, jitter)};
    }
    return std::nullopt;
}

struct Frame {
    IntVar var;
    int value;
    bool tried_right = false;
};

}  // namespace

namespace {

void export_counter(obs::MetricsRegistry& m, const std::string& name, MergeRule rule,
                    std::int64_t v) {
    REVEC_EXPECTS(rule != MergeRule::Gauge);
    m.set(name, rule == MergeRule::Sum ? m.counter(name) + v : std::max(m.counter(name), v));
}

void export_counter(obs::MetricsRegistry& m, const std::string& name, MergeRule rule,
                    double v) {
    REVEC_EXPECTS(rule == MergeRule::Gauge);
    m.gauge(name, v);
}

}  // namespace

template <typename Stats>
void export_counters(const Stats& s, obs::MetricsRegistry& m, const std::string& prefix) {
    Stats::for_each_field(
        [&](const char* name, MergeRule rule, const auto& v) {
            export_counter(m, prefix + name, rule, v);
        },
        s);
}

template void export_counters(const SearchStats&, obs::MetricsRegistry&, const std::string&);
template void export_counters(const PropagationStats&, obs::MetricsRegistry&,
                              const std::string&);
template void export_counters(const PropProfile&, obs::MetricsRegistry&, const std::string&);

void SolveWork::absorb(const SolveWork& other) {
    merge_counters(stats, other.stats);
    merge_counters(prop_stats, other.prop_stats);
    for (const PropProfile& p : other.prop_profile) {
        const auto it = std::find_if(prop_profile.begin(), prop_profile.end(),
                                     [&](const PropProfile& q) {
                                         return std::strcmp(q.cls, p.cls) == 0;
                                     });
        if (it == prop_profile.end()) {
            prop_profile.push_back(p);
        } else {
            merge_counters(*it, p);
        }
    }
    std::sort(prop_profile.begin(), prop_profile.end(),
              [](const PropProfile& a, const PropProfile& b) {
                  return std::strcmp(a.cls, b.cls) < 0;
              });
}

void SolveWork::export_metrics(obs::MetricsRegistry& m) const {
    export_counters(stats, m, "solve.");
    export_counters(prop_stats, m, "engine.");
    for (const PropProfile& p : prop_profile) {
        export_counters(p, m, std::string("prop.") + p.cls + ".");
    }
}

SolveResult solve(Store& store, const std::vector<Phase>& phases, IntVar objective,
                  const SearchOptions& options) {
    REVEC_EXPECTS(store.level() == 0);
    Stopwatch watch;
    SolveResult result;
    std::vector<Frame> frames;

    obs::TraceBuffer* const trace = options.trace;

    XorShift jitter_rng(options.value_jitter_seed);
    XorShift* jitter = options.value_jitter_seed != 0 ? &jitter_rng : nullptr;
    XorShift reseed(options.value_jitter_seed);
    std::int64_t restart_limit = kRestartFailures;
    std::int64_t run_failures = 0;

    bool have_best = false;
    std::int64_t best_obj = 0;

    const auto record_solution = [&] {
        result.best.resize(store.num_vars());
        for (std::size_t i = 0; i < store.num_vars(); ++i) {
            result.best[i] = store.min(IntVar(static_cast<std::int32_t>(i)));
        }
        ++result.stats.solutions;
        obs::instant(trace, obs::TraceLevel::Phase, "solution", "obj",
                     objective.valid() ? store.min(objective) : 0, "nodes",
                     result.stats.nodes);
    };

    /// Publish a local improvement to the shared incumbent (atomic min).
    const auto publish_bound = [&] {
        if (options.shared_bound == nullptr) return;
        std::int64_t cur = options.shared_bound->load(std::memory_order_relaxed);
        while (best_obj < cur &&
               !options.shared_bound->compare_exchange_weak(cur, best_obj,
                                                            std::memory_order_relaxed)) {
        }
        obs::instant(trace, obs::TraceLevel::Phase, "bound", "obj", best_obj);
    };

    /// Install objective <= cutoff-1, where cutoff is the tightest of the
    /// local and shared incumbents. Returns false when the bound empties
    /// the objective's domain (the subtree cannot improve).
    const auto install_cutoff = [&]() -> bool {
        if (!objective.valid()) return true;
        std::int64_t cutoff = have_best ? best_obj : kNoBound;
        if (options.shared_bound != nullptr) {
            cutoff = std::min(cutoff,
                              options.shared_bound->load(std::memory_order_relaxed));
        }
        if (cutoff == kNoBound) return true;
        if (store.set_max(objective, cutoff - 1)) return true;
        ++result.stats.cutoff_prunes;
        return false;
    };

    const auto finish = [&](SolveStatus status) {
        // Unwind so the caller gets the store back at root level.
        while (store.level() > 0) store.pop_level();
        result.status = status;
        result.stats.time_ms = watch.elapsed_ms();
        result.prop_stats = store.stats();
        if (store.profiling()) result.prop_profile = store.profile_by_class();
        return result;
    };

    const auto out_of_budget = [&] {
        if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed)) {
            return true;
        }
        if (options.deadline.expired()) return true;
        return options.max_failures >= 0 && result.stats.failures > options.max_failures;
    };

    bool ok = store.propagate();
    while (true) {
        if (out_of_budget()) {
            return finish(have_best ? SolveStatus::SatTimeout : SolveStatus::Timeout);
        }
        if (run_failures > restart_limit) {
            // Restart from the root with a fresh jitter seed; the incumbent
            // (have_best/best_obj) carries over and bounds the next run.
            ++result.stats.restarts;
            obs::instant(trace, obs::TraceLevel::Phase, "restart", "limit", restart_limit);
            while (store.level() > 0) store.pop_level();
            frames.clear();
            restart_limit = 2 * restart_limit + 1;
            run_failures = 0;
            jitter_rng = XorShift(reseed.next() | 1u);
            jitter = &jitter_rng;
            ok = store.propagate();
            continue;
        }
        if (ok) {
            const auto decision = choose(store, phases, jitter);
            if (!decision.has_value()) {
                record_solution();
                if (!objective.valid()) {
                    return finish(SolveStatus::Optimal);
                }
                best_obj = store.min(objective);
                have_best = true;
                publish_bound();
                ok = false;  // force backtracking to look for better solutions
                continue;
            }
            ++result.stats.nodes;
            obs::instant(trace, obs::TraceLevel::Node, "node", "depth",
                         static_cast<std::int64_t>(frames.size()));
            frames.push_back({decision->var, decision->value, false});
            store.push_level();
            ok = store.assign(decision->var, decision->value);
            if (ok) ok = install_cutoff();
            if (ok) ok = store.propagate();
        } else {
            ++result.stats.failures;
            ++run_failures;
            obs::instant(trace, obs::TraceLevel::Node, "fail", "depth",
                         static_cast<std::int64_t>(frames.size()));
            // Backtrack to the deepest frame with an untried right branch.
            while (true) {
                if (frames.empty()) {
                    return finish(have_best || result.stats.solutions > 0 ? SolveStatus::Optimal
                                                                          : SolveStatus::Unsat);
                }
                Frame& f = frames.back();
                store.pop_level();
                if (!f.tried_right) {
                    f.tried_right = true;
                    ++result.stats.nodes;
                    obs::instant(trace, obs::TraceLevel::Node, "node", "depth",
                                 static_cast<std::int64_t>(frames.size()) - 1);
                    store.push_level();
                    ok = store.remove(f.var, f.value);
                    if (ok) ok = install_cutoff();
                    if (ok) ok = store.propagate();
                    break;
                }
                frames.pop_back();
            }
        }
    }
}

SolveResult satisfy(Store& store, const std::vector<Phase>& phases, const SearchOptions& options) {
    return solve(store, phases, IntVar(), options);
}

}  // namespace revec::cp
