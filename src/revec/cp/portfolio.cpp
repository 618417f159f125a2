#include "revec/cp/portfolio.hpp"

#include <atomic>
#include <exception>
#include <limits>
#include <string>
#include <thread>

#include "revec/obs/trace.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/rng.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::cp {

namespace {

constexpr std::int64_t kNoBound = std::numeric_limits<std::int64_t>::max();

struct WorkerSlot {
    WorkerReport report;
    std::vector<int> best;
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

/// One CP worker: one cp::solve over `store` — the caller's emission for
/// worker 0, a clone of it for the others — against the shared bound, with
/// the worker's jitter seed; fills `slot`.
void search_worker(Store& store, const PostedModel& model, const SearchOptions& base,
                   bool profile, obs::TraceBuffer* trace, std::atomic<bool>& stop,
                   std::atomic<std::int64_t>& shared, WorkerSlot& slot) {
    if (profile) store.enable_profiling();

    SearchOptions opts = base;
    opts.stop = &stop;
    opts.shared_bound = model.objective.valid() ? &shared : nullptr;
    opts.value_jitter_seed = slot.report.jitter_seed;
    opts.trace = trace;

    SolveResult r = solve(store, model.phases, model.objective, opts);
    static_cast<SolveWork&>(slot.report) = r;
    slot.report.status = r.status;
    if (r.has_solution()) {
        slot.report.best_objective = model.objective.valid() ? r.value_of(model.objective) : 0;
    }
    // Optimal/Unsat is genuine exhaustion of the bound-pruned tree: with
    // any incumbent (ours or shared) this proves global optimality.
    slot.report.proved = r.status == SolveStatus::Optimal || r.status == SolveStatus::Unsat;
    slot.best = std::move(r.best);
    if (slot.report.proved) stop.store(true, std::memory_order_release);
}

}  // namespace

std::uint32_t worker_jitter_seed(int k, std::uint32_t seed) {
    REVEC_EXPECTS(k >= 0);
    if (k == 0) return 0;
    return XorShift(seed + 0x9e3779b9u * static_cast<std::uint32_t>(k)).next() | 1u;
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

    std::vector<WorkerSlot> slots(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
        slots[static_cast<std::size_t>(k)].report.config_index = k;
        slots[static_cast<std::size_t>(k)].report.jitter_seed = worker_jitter_seed(k, config.seed);
    }

    if (n == 1) {
        // One worker searches inline on the caller's store and trace track:
        // exactly cp::solve's tree, with no worker span or track.
        search_worker(store, model, options, config.profile, options.trace, stop, shared,
                      slots[0]);
    } else {
        // Workers 1..N-1 search clones of the caller's store, all taken
        // here, before worker 0 starts on the original.
        std::vector<Store> clones;
        clones.reserve(static_cast<std::size_t>(n - 1));
        for (int k = 1; k < n; ++k) clones.push_back(store.clone());

        // Register one trace track per worker up front (on this thread, in
        // worker order) so the serialized track order is deterministic
        // whatever the thread scheduling does.
        std::vector<obs::TraceBuffer*> tracks(static_cast<std::size_t>(n), nullptr);
        if (config.trace != nullptr) {
            for (int k = 0; k < n; ++k) {
                tracks[static_cast<std::size_t>(k)] =
                    config.trace->new_track("worker-" + std::to_string(k));
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
                    search_worker(k == 0 ? store : clones[i - 1], model, options,
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
        out.absorb(slot.report);
        any_proof = any_proof || slot.report.proved;
        // Best objective first, then lowest worker index (strict < keeps
        // the earlier worker on ties).
        if (!slot.best.empty() && slot.report.best_objective < best_obj) {
            best_obj = slot.report.best_objective;
            out.best = std::move(slot.best);
            out.winner = k;
        }
        out.workers.push_back(slot.report);
    }
    out.status = any_proof
                     ? (out.has_solution() ? SolveStatus::Optimal : SolveStatus::Unsat)
                     : (out.has_solution() ? SolveStatus::SatTimeout : SolveStatus::Timeout);
    out.stats.time_ms = watch.elapsed_ms();
    return out;
}

}  // namespace revec::cp
