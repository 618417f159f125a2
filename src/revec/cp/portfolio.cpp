#include "revec/cp/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "revec/obs/trace.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/rng.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::cp {

namespace {

constexpr std::int64_t kNoBound = std::numeric_limits<std::int64_t>::max();

/// Rewrite the builder's phases according to one diversification row.
std::vector<Phase> apply_config(std::vector<Phase> phases, const WorkerConfig& cfg) {
    if (cfg.flatten_phases) {
        Phase all;
        for (const Phase& p : phases) {
            all.vars.insert(all.vars.end(), p.vars.begin(), p.vars.end());
        }
        all.var_select = cfg.var_select;
        all.val_select = cfg.val_select;
        all.label = "flat";
        return {all};
    }
    if (!cfg.keep_phase_heuristics) {
        for (Phase& p : phases) {
            p.var_select = cfg.var_select;
            p.val_select = cfg.val_select;
        }
    }
    return phases;
}

struct WorkerSlot {
    WorkerReport report;
    std::vector<int> best;  ///< best assignment across restarts
    std::exception_ptr error;
};

/// The shared incumbent *assignment* (the atomic bound carries only the
/// objective). CP workers publish every improving solution here through the
/// on_solution hook; LNS workers snapshot it, relax a neighbourhood, and
/// publish accepted repairs back. Only allocated when lns_workers > 0.
struct SharedIncumbent {
    std::mutex mu;
    std::vector<int> best;
    std::int64_t objective = kNoBound;
};

/// One portfolio worker: rebuild the model, run the (possibly restarting)
/// DFS against the shared bound, and fill `slot`.
void run_worker(const ModelBuilder& build, const WorkerConfig& cfg,
                const SearchOptions& base, const RestartPolicy& policy, bool profile,
                obs::TraceBuffer* trace, std::int64_t trace_rid, std::atomic<bool>& stop,
                std::atomic<std::int64_t>& shared, SharedIncumbent* incumbent,
                WorkerSlot& slot) {
    try {
        // The rid payload only appears for service-correlated solves, so
        // standalone traces stay byte-identical with rid plumbing in place.
        obs::SpanScope worker_span(trace, obs::TraceLevel::Phase, "worker",
                                   trace_rid != 0 ? "rid" : nullptr, trace_rid);
        Store store;
        if (profile) store.enable_profiling();
        const PostedModel model = build(store);
        const std::vector<Phase> phases = apply_config(model.phases, cfg);

        SearchOptions opts = base;
        opts.stop = &stop;
        opts.shared_bound = model.objective.valid() ? &shared : nullptr;
        opts.value_jitter_seed = cfg.jitter_seed;
        opts.trace = trace;
        if (incumbent != nullptr && model.objective.valid()) {
            opts.on_solution = [incumbent](const std::vector<int>& a, std::int64_t obj) {
                const std::lock_guard<std::mutex> lock(incumbent->mu);
                if (obj < incumbent->objective) {
                    incumbent->objective = obj;
                    incumbent->best = a;
                }
            };
        }

        XorShift reseed(cfg.jitter_seed == 0 ? 0x7f4a7c15u : cfg.jitter_seed);
        std::int64_t restart_limit = cfg.restarts ? policy.initial_failures : -1;
        std::int64_t local_best = kNoBound;

        while (true) {
            // Per-solve failure budget: the restart limit, clipped so the
            // caller's overall per-worker limit is still honored.
            std::int64_t limit = restart_limit;
            if (base.max_failures >= 0) {
                const std::int64_t remaining =
                    std::max<std::int64_t>(0, base.max_failures - slot.report.stats.failures);
                limit = limit < 0 ? remaining : std::min(limit, remaining);
            }
            opts.max_failures = limit;

            const SolveResult r = solve(store, phases, model.objective, opts);
            slot.report.stats.absorb(r.stats);
            slot.report.status = r.status;
            if (r.has_solution()) {
                const std::int64_t obj =
                    model.objective.valid() ? r.value_of(model.objective) : 0;
                if (slot.best.empty() || obj < local_best) {
                    slot.best = r.best;
                    local_best = obj;
                    slot.report.best_objective = obj;
                }
            }

            if (r.status == SolveStatus::Optimal || r.status == SolveStatus::Unsat) {
                // Genuine exhaustion of the bound-pruned tree: with any
                // incumbent (ours or shared) this proves global optimality.
                slot.report.proved = true;
                break;
            }
            // Timeout / SatTimeout: cancelled, out of wall clock, out of the
            // caller's failure budget, or (restart workers) out of the
            // per-restart failure limit. Only the last one restarts.
            if (stop.load(std::memory_order_relaxed) || base.deadline.expired()) break;
            if (base.max_failures >= 0 &&
                slot.report.stats.failures > base.max_failures) {
                break;
            }
            if (restart_limit < 0) break;
            ++slot.report.stats.restarts;
            obs::instant(trace, obs::TraceLevel::Phase, "restart", "limit",
                         restart_limit);
            restart_limit =
                static_cast<std::int64_t>(static_cast<double>(restart_limit) * policy.growth) +
                1;
            opts.value_jitter_seed = reseed.next() | 1u;
        }
        slot.report.prop_stats = store.stats();
        if (profile) slot.report.prop_profile = store.profile_by_class();
        worker_span.result("nodes", slot.report.stats.nodes, "proved",
                           slot.report.proved ? 1 : 0);
        if (slot.report.proved) stop.store(true, std::memory_order_release);
    } catch (...) {
        slot.error = std::current_exception();
        stop.store(true, std::memory_order_release);
    }
}

/// Once every CP worker has returned, this many consecutive non-improving
/// rounds end an LNS worker — otherwise a deadline-free portfolio whose CP
/// workers ran out of failure budget would spin forever.
constexpr std::int64_t kLnsIdleLimit = 16;

/// One LNS worker: loop { snapshot incumbent, run one lns_round, publish
/// accepted improvements through the shared bound + incumbent }. Never sets
/// `proved` — LNS only improves, proofs come from CP workers.
void run_lns_worker(const LnsRoundFn& round, int lns_index, std::uint32_t seed,
                    const SearchOptions& base, obs::TraceBuffer* trace,
                    std::int64_t trace_rid, std::atomic<bool>& stop,
                    std::atomic<std::int64_t>& shared, SharedIncumbent& incumbent,
                    const std::atomic<int>& cp_active, WorkerSlot& slot) {
    try {
        obs::SpanScope worker_span(trace, obs::TraceLevel::Phase, "worker",
                                   trace_rid != 0 ? "rid" : nullptr, trace_rid);
        XorShift rng(seed);
        std::int64_t idle = 0;
        int round_no = 0;
        while (!stop.load(std::memory_order_relaxed) && !base.deadline.expired()) {
            std::vector<int> snapshot;
            std::int64_t snapshot_obj = kNoBound;
            {
                const std::lock_guard<std::mutex> lock(incumbent.mu);
                snapshot = incumbent.best;
                snapshot_obj = incumbent.objective;
            }
            if (snapshot.empty()) {
                // Cold start without a seed assignment: wait for some CP
                // worker's first solution; give up when none can come.
                if (cp_active.load(std::memory_order_acquire) == 0) break;
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
            }
            LnsRoundContext ctx;
            ctx.incumbent = &snapshot;
            ctx.objective = snapshot_obj;
            ctx.seed = rng.next() | 1u;
            ctx.worker = lns_index;
            ctx.round = round_no++;
            ctx.deadline = base.deadline;
            ctx.stop = &stop;
            ctx.trace = trace;
            ctx.trace_rid = trace_rid;
            const LnsRoundResult r = round(ctx);
            ++slot.report.lns_rounds;
            slot.report.stats.absorb(r.stats);

            bool accepted = false;
            if (r.improved && !r.assignment.empty() && r.objective < snapshot_obj) {
                const std::lock_guard<std::mutex> lock(incumbent.mu);
                if (r.objective < incumbent.objective) {
                    incumbent.objective = r.objective;
                    incumbent.best = r.assignment;
                    accepted = true;
                }
            }
            if (accepted) {
                ++slot.report.lns_accepted;
                idle = 0;
                slot.best = r.assignment;
                slot.report.best_objective = r.objective;
                slot.report.status = SolveStatus::SatTimeout;
                // Publish through the shared bound so every CP worker prunes
                // against the LNS incumbent from its next node on.
                std::int64_t cur = shared.load(std::memory_order_relaxed);
                while (r.objective < cur &&
                       !shared.compare_exchange_weak(cur, r.objective,
                                                     std::memory_order_relaxed)) {
                }
                obs::instant(trace, obs::TraceLevel::Phase, "bound", "obj", r.objective);
            } else {
                ++slot.report.lns_rejected;
                ++idle;
                if (cp_active.load(std::memory_order_acquire) == 0 &&
                    idle >= kLnsIdleLimit) {
                    break;
                }
            }
        }
        worker_span.result("rounds", slot.report.lns_rounds, "accepted",
                           slot.report.lns_accepted);
    } catch (...) {
        slot.error = std::current_exception();
        stop.store(true, std::memory_order_release);
    }
}

}  // namespace

WorkerConfig diversified_config(int k, std::uint32_t seed, const RestartPolicy& policy) {
    REVEC_EXPECTS(k >= 0);
    WorkerConfig c;
    if (k == 0) {
        // The paper's own heuristics; bit-compatible with the sequential
        // solver so a 1-thread portfolio matches its node counts exactly.
        c.label = "baseline";
        return c;
    }
    XorShift rng(seed + 0x9e3779b9u * static_cast<std::uint32_t>(k));
    switch ((k - 1) % 6) {
        case 0:
            c.var_select = VarSelect::MinDomain;
            c.val_select = ValSelect::Min;
            c.keep_phase_heuristics = false;
            c.label = "first-fail/min";
            break;
        case 1:
            c.var_select = VarSelect::SmallestMin;
            c.val_select = ValSelect::Median;
            c.keep_phase_heuristics = false;
            c.label = "smallest-min/median";
            break;
        case 2:
            c.var_select = VarSelect::MinDomain;
            c.val_select = ValSelect::Min;
            c.keep_phase_heuristics = false;
            c.flatten_phases = true;
            c.label = "flat/first-fail";
            break;
        case 3:
            c.restarts = policy.enabled;
            c.jitter_seed = rng.next() | 1u;
            c.label = "baseline/restart-jitter";
            break;
        case 4:
            c.var_select = VarSelect::InputOrder;
            c.val_select = ValSelect::Min;
            c.keep_phase_heuristics = false;
            c.label = "input-order/min";
            break;
        case 5:
            c.var_select = VarSelect::MinDomain;
            c.val_select = ValSelect::Median;
            c.keep_phase_heuristics = false;
            c.restarts = policy.enabled;
            c.jitter_seed = rng.next() | 1u;
            c.label = "first-fail/median/restart";
            break;
    }
    if (k > 6) {
        // Fleets past one full table cycle get fresh jitter for diversity.
        c.jitter_seed = rng.next() | 1u;
        c.label += "#" + std::to_string(k);
    }
    return c;
}

SolveResult PortfolioResult::to_solve_result() const {
    SolveResult r;
    r.status = status;
    r.stats = stats;
    r.prop_stats = prop_stats;
    r.prop_profile = prop_profile;
    r.best = best;
    return r;
}

PortfolioResult solve_portfolio(const ModelBuilder& build, const SolverConfig& config,
                                const SearchOptions& options) {
    REVEC_EXPECTS(config.threads >= 1);
    REVEC_EXPECTS(config.lns_workers >= 0);
    REVEC_EXPECTS(config.lns_workers == 0 || config.lns_round != nullptr);
    REVEC_EXPECTS(options.stop == nullptr && options.shared_bound == nullptr &&
                  options.on_solution == nullptr);
    Stopwatch watch;

    const int n = config.threads;
    const int lns = config.lns_workers;
    const int total = n + lns;
    std::atomic<bool> stop{false};
    // Warm start: a seeded incumbent makes every worker search strictly
    // better objectives only. An exhausted search with no solution then
    // reports Unsat, which the caller reads as "the seed was optimal".
    std::atomic<std::int64_t> shared{config.initial_incumbent};
    // CP workers still running — LNS workers stop once no CP worker is left
    // to feed them fresh incumbents and rounds stop paying off.
    std::atomic<int> cp_active{n};
    SharedIncumbent incumbent;
    if (lns > 0 && config.initial_incumbent != kNoBound &&
        !config.lns_seed_assignment.empty()) {
        incumbent.best = config.lns_seed_assignment;
        incumbent.objective = config.initial_incumbent;
    }

    std::vector<WorkerConfig> cfgs;
    cfgs.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
        cfgs.push_back(diversified_config(k, config.seed, config.restart_policy));
    }
    std::vector<WorkerSlot> slots(static_cast<std::size_t>(total));

    // Register one trace track per worker up front (on this thread, in
    // worker order, CP workers then LNS workers) so the serialized track
    // order is deterministic whatever the thread scheduling does.
    std::vector<obs::TraceBuffer*> tracks(static_cast<std::size_t>(total), nullptr);
    if (config.trace != nullptr) {
        for (int k = 0; k < n; ++k) {
            tracks[static_cast<std::size_t>(k)] =
                config.trace->new_track("worker-" + std::to_string(k) + " (" +
                                        cfgs[static_cast<std::size_t>(k)].label + ")");
        }
        for (int j = 0; j < lns; ++j) {
            tracks[static_cast<std::size_t>(n + j)] =
                config.trace->new_track("lns-" + std::to_string(j));
        }
    }

    SharedIncumbent* const inc = lns > 0 ? &incumbent : nullptr;
    if (total == 1) {
        run_worker(build, cfgs[0], options, config.restart_policy, config.profile,
                   tracks[0], config.trace_rid, stop, shared, inc, slots[0]);
        cp_active.store(0, std::memory_order_release);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(total));
        for (int k = 0; k < n; ++k) {
            threads.emplace_back([&, k] {
                run_worker(build, cfgs[static_cast<std::size_t>(k)], options,
                           config.restart_policy, config.profile,
                           tracks[static_cast<std::size_t>(k)], config.trace_rid, stop,
                           shared, inc, slots[static_cast<std::size_t>(k)]);
                cp_active.fetch_sub(1, std::memory_order_release);
            });
        }
        XorShift lns_seeds(config.seed ^ 0x1a5beadu);
        for (int j = 0; j < lns; ++j) {
            const std::uint32_t seed = lns_seeds.next() | 1u;
            threads.emplace_back([&, j, seed] {
                run_lns_worker(config.lns_round, j, seed, options,
                               tracks[static_cast<std::size_t>(n + j)], config.trace_rid,
                               stop, shared, incumbent, cp_active,
                               slots[static_cast<std::size_t>(n + j)]);
            });
        }
        for (std::thread& t : threads) t.join();
    }

    for (const WorkerSlot& slot : slots) {
        if (slot.error) std::rethrow_exception(slot.error);
    }

    PortfolioResult out;
    bool any_proof = false;
    std::int64_t best_obj = kNoBound;
    for (int k = 0; k < total; ++k) {
        WorkerSlot& slot = slots[static_cast<std::size_t>(k)];
        slot.report.config_index = k;
        if (k < n) {
            slot.report.label = cfgs[static_cast<std::size_t>(k)].label;
        } else {
            slot.report.label = "lns-" + std::to_string(k - n);
            slot.report.is_lns = true;
        }
        out.stats.absorb(slot.report.stats);
        out.prop_stats.absorb(slot.report.prop_stats);
        absorb_prop_profiles(out.prop_profile, slot.report.prop_profile);
        any_proof = any_proof || slot.report.proved;
        // Deterministic merge: best objective first, then lowest config
        // index (strict < keeps the earlier worker on ties).
        if (!slot.best.empty() && slot.report.best_objective < best_obj) {
            best_obj = slot.report.best_objective;
            out.best = slot.best;
            out.winner = k;
        }
        out.workers.push_back(slot.report);
    }
    out.status = any_proof
                     ? (out.has_solution() ? SolveStatus::Optimal : SolveStatus::Unsat)
                     : (out.has_solution() ? SolveStatus::SatTimeout : SolveStatus::Timeout);

    // Canonical replay: thread timing decides which worker first reports the
    // optimal objective, so the *assignment* above can differ run to run
    // even though the objective cannot. Re-derive it deterministically with
    // the baseline configuration under the proven bound. (LNS workers make
    // even a 1-CP-thread portfolio timing-dependent, hence `total`.)
    if (config.canonical_replay && total > 1 && out.status == SolveStatus::Optimal &&
        out.has_solution()) {
        obs::TraceBuffer* const main_track =
            config.trace != nullptr ? config.trace->main() : nullptr;
        obs::SpanScope replay_span(main_track, obs::TraceLevel::Phase,
                                   "canonical_replay");
        Store store;
        if (config.profile) store.enable_profiling();
        const PostedModel model = build(store);
        if (model.objective.valid() && store.set_max(model.objective, best_obj)) {
            SearchOptions replay_opts;
            replay_opts.deadline = options.deadline;
            replay_opts.stop_at_first_solution = true;
            replay_opts.trace = main_track;
            const SolveResult replay = solve(store, model.phases, model.objective, replay_opts);
            out.stats.absorb(replay.stats);
            out.prop_stats.absorb(replay.prop_stats);
            absorb_prop_profiles(out.prop_profile, replay.prop_profile);
            replay_span.result("nodes", replay.stats.nodes);
            if (replay.has_solution() && replay.value_of(model.objective) == best_obj) {
                out.best = replay.best;
            }
        }
    }

    out.stats.time_ms = watch.elapsed_ms();
    return out;
}

}  // namespace revec::cp
