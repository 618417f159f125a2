#include "revec/cp/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <thread>

#include "revec/obs/trace.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/rng.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::cp {

namespace {

constexpr std::int64_t kNoBound = std::numeric_limits<std::int64_t>::max();

/// Failure-limited restarts of workers 1..N-1: the first solve gets
/// kRestartFailures failures, each restart kRestartGrowth times more.
/// Geometric growth keeps restart workers complete: the limit eventually
/// exceeds any finite search space.
constexpr std::int64_t kRestartFailures = 512;
constexpr double kRestartGrowth = 2.0;

struct WorkerSlot {
    WorkerReport report;
    std::vector<int> best;  ///< best assignment across restarts
    std::exception_ptr error;
};

/// Run one worker thread's body, parking any exception in its slot and
/// cancelling the other workers.
template <typename Body>
void guarded(WorkerSlot& slot, std::atomic<bool>& stop, Body&& body) {
    try {
        body();
    } catch (...) {
        slot.error = std::current_exception();
        stop.store(true, std::memory_order_release);
    }
}

/// One CP worker: run the (possibly restarting) DFS over `store` — the
/// caller's emission for worker 0, a clone of it for the others — against
/// the shared bound, and fill `slot`.
void search_worker(Store& store, const PostedModel& model, const WorkerConfig& cfg,
                   const SearchOptions& base, bool profile, obs::TraceBuffer* trace,
                   std::atomic<bool>& stop, std::atomic<std::int64_t>& shared,
                   WorkerSlot& slot) {
    if (profile) store.enable_profiling();

    SearchOptions opts = base;
    opts.stop = &stop;
    opts.shared_bound = model.objective.valid() ? &shared : nullptr;
    opts.value_jitter_seed = cfg.jitter_seed;
    opts.trace = trace;

    XorShift reseed(cfg.jitter_seed);
    std::int64_t restart_limit = cfg.restarts ? kRestartFailures : -1;
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

        const SolveResult r = solve(store, model.phases, model.objective, opts);
        // Search counters per solve; the engine counters and profile
        // accumulate in the one store and are read once at the end.
        merge_counters(slot.report.stats, r.stats);
        slot.report.status = r.status;
        if (r.has_solution()) {
            const std::int64_t obj = model.objective.valid() ? r.value_of(model.objective) : 0;
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
        if (base.max_failures >= 0 && slot.report.stats.failures > base.max_failures) {
            break;
        }
        if (restart_limit < 0) break;
        ++slot.report.stats.restarts;
        obs::instant(trace, obs::TraceLevel::Phase, "restart", "limit", restart_limit);
        restart_limit =
            static_cast<std::int64_t>(static_cast<double>(restart_limit) * kRestartGrowth) + 1;
        opts.value_jitter_seed = reseed.next() | 1u;
    }
    slot.report.prop_stats = store.stats();
    if (profile) slot.report.prop_profile = store.profile_by_class();
    if (slot.report.proved) stop.store(true, std::memory_order_release);
}

}  // namespace

WorkerConfig worker_config(int k, std::uint32_t seed) {
    REVEC_EXPECTS(k >= 0);
    WorkerConfig c;
    if (k == 0) {
        // Bit-compatible with the sequential solver, so a 1-thread
        // portfolio matches its node counts exactly.
        c.label = "baseline";
        return c;
    }
    c.restarts = true;
    c.jitter_seed = XorShift(seed + 0x9e3779b9u * static_cast<std::uint32_t>(k)).next() | 1u;
    c.label = "restart-jitter";
    return c;
}

PortfolioResult solve_portfolio(Store& store, const PostedModel& model,
                                const SolverConfig& config, const SearchOptions& options) {
    REVEC_EXPECTS(config.threads >= 1 && config.threads <= kMaxWorkers);
    REVEC_EXPECTS(options.stop == nullptr && options.shared_bound == nullptr);
    Stopwatch watch;

    const int n = config.threads;
    std::atomic<bool> stop{false};
    // Warm start: a seeded incumbent makes every worker search strictly
    // better objectives only. An exhausted search with no solution then
    // reports Unsat, which the caller reads as "the seed was optimal".
    std::atomic<std::int64_t> shared{config.initial_incumbent};

    std::vector<WorkerConfig> cfgs;
    cfgs.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
        cfgs.push_back(worker_config(k, config.seed));
    }
    std::vector<WorkerSlot> slots(static_cast<std::size_t>(n));

    // Workers 1..N-1 search clones of the caller's store, and the replay
    // the last one: all taken here, before worker 0 starts on the original.
    std::vector<Store> clones;
    if (n > 1) {
        clones.reserve(static_cast<std::size_t>(n));
        for (int k = 0; k < n; ++k) clones.push_back(store.clone());
    }

    if (n == 1) {
        // One worker searches inline on the caller's store and trace track:
        // exactly the sequential tree, with no worker span or track.
        search_worker(store, model, cfgs[0], options, config.profile, options.trace, stop,
                      shared, slots[0]);
    } else {
        // Register one trace track per worker up front (on this thread, in
        // worker order) so the serialized track order is deterministic
        // whatever the thread scheduling does.
        std::vector<obs::TraceBuffer*> tracks(static_cast<std::size_t>(n), nullptr);
        if (config.trace != nullptr) {
            for (int k = 0; k < n; ++k) {
                tracks[static_cast<std::size_t>(k)] = config.trace->new_track(
                    "worker-" + std::to_string(k) + " (" +
                    cfgs[static_cast<std::size_t>(k)].label + ")");
            }
        }
        // The rid payload only appears for service-correlated solves, so
        // standalone traces stay byte-identical with rid plumbing in place.
        const char* const rid_key = config.trace_rid != 0 ? "rid" : nullptr;

        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(n));
        for (int k = 0; k < n; ++k) {
            threads.emplace_back([&, k] {
                const auto i = static_cast<std::size_t>(k);
                WorkerSlot& slot = slots[i];
                guarded(slot, stop, [&] {
                    obs::SpanScope span(tracks[i], obs::TraceLevel::Phase, "worker", rid_key,
                                        config.trace_rid);
                    search_worker(k == 0 ? store : clones[i - 1], model, cfgs[i], options,
                                  config.profile, tracks[i], stop, shared, slot);
                    span.result("nodes", slot.report.stats.nodes, "proved",
                                slot.report.proved ? 1 : 0);
                });
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
    for (int k = 0; k < n; ++k) {
        WorkerSlot& slot = slots[static_cast<std::size_t>(k)];
        slot.report.config_index = k;
        slot.report.label = cfgs[static_cast<std::size_t>(k)].label;
        out.absorb(slot.report);
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
    // the baseline configuration under the proven bound, within its failure
    // budget; past it the merged winner's assignment stands.
    if (n > 1 && out.status == SolveStatus::Optimal && out.has_solution()) {
        obs::SpanScope replay_span(options.trace, obs::TraceLevel::Phase, "replay");
        Store& replay_store = clones.back();
        if (config.profile) replay_store.enable_profiling();
        if (model.objective.valid() && replay_store.set_max(model.objective, best_obj)) {
            SearchOptions replay_opts;
            replay_opts.deadline = options.deadline;
            replay_opts.max_failures = kReplayFailures;
            replay_opts.stop_at_first_solution = true;
            replay_opts.trace = options.trace;
            const SolveResult replay =
                solve(replay_store, model.phases, model.objective, replay_opts);
            out.absorb(replay);
            const bool found =
                replay.has_solution() && replay.value_of(model.objective) == best_obj;
            replay_span.result("nodes", replay.stats.nodes, "found", found ? 1 : 0);
            if (found) out.best = replay.best;
        }
    }

    out.stats.time_ms = watch.elapsed_ms();
    return out;
}

}  // namespace revec::cp
