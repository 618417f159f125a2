// The constraint store: owns variable domains and propagators, runs
// propagation to fixpoint, and supports chronological backtracking through
// a trail of saved domains.
//
// The propagation engine is event-driven:
//  * every mutation computes the typed events it fired (MIN/MAX/FIXED/
//    DOMAIN) and wakes only watchers whose event mask matches;
//  * the runnable queue is bucketed by propagator priority and drained
//    cheapest-first, with self-wakeups suppressed for propagators that
//    declare idempotence;
//  * the trail records compact bound-change deltas — a full domain
//    snapshot is taken only when a holed domain changes hole structure.
// All three mechanisms are fixpoint-preserving; golden search counters in
// the tests pin the resulting search trees.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "revec/cp/counters.hpp"
#include "revec/cp/domain.hpp"
#include "revec/cp/propagator.hpp"
#include "revec/cp/var.hpp"
#include "revec/support/assert.hpp"

namespace revec::obs {
class TraceBuffer;
}  // namespace revec::obs

namespace revec::cp {

/// Counters describing the work a store (and the search on top of it) did.
struct PropagationStats {
    std::int64_t propagations = 0;  ///< propagator executions
    std::int64_t domain_changes = 0;

    /// Modification events fired, indexed by event kind (MIN, MAX, FIXED,
    /// DOMAIN in bit order). DOMAIN fires on every change.
    std::array<std::int64_t, kNumEventKinds> events{};
    std::int64_t wakeups = 0;           ///< watcher notifications passing the mask
    std::int64_t wakeups_filtered = 0;  ///< notifications dropped by event masks
    std::int64_t self_wakeups_suppressed = 0;  ///< idempotent self-wakeups dropped
    std::int64_t starvation_runs = 0;   ///< escalated runs of a bypassed costlier bucket

    /// Queue pushes per priority bucket and the high-water mark of the
    /// total queued-propagator count.
    std::array<std::int64_t, kNumPriorities> queue_pushes{};
    std::int64_t max_queue_depth = 0;

    std::int64_t trail_saves = 0;      ///< trail records pushed (any kind)
    std::int64_t trail_snapshots = 0;  ///< full Domain snapshots among them
    std::int64_t trail_bytes = 0;      ///< payload bytes trailed (snapshots
                                       ///< count their interval storage)

    /// The field table (counters.hpp): f(metric name, merge rule, member...)
    /// once per counter, in lockstep over the given structs.
    template <typename F, typename... S>
    static constexpr void for_each_field(F&& f, S&... s) {
        static_assert(kNumEventKinds == 4 && kNumPriorities == 3);
        f("propagations", MergeRule::Sum, s.propagations...);
        f("domain_changes", MergeRule::Sum, s.domain_changes...);
        f("events.min", MergeRule::Sum, s.events[0]...);
        f("events.max", MergeRule::Sum, s.events[1]...);
        f("events.fixed", MergeRule::Sum, s.events[2]...);
        f("events.domain", MergeRule::Sum, s.events[3]...);
        f("wakeups", MergeRule::Sum, s.wakeups...);
        f("wakeups_filtered", MergeRule::Sum, s.wakeups_filtered...);
        f("self_wakeups_suppressed", MergeRule::Sum, s.self_wakeups_suppressed...);
        f("starvation_runs", MergeRule::Sum, s.starvation_runs...);
        f("queue_pushes.unary", MergeRule::Sum, s.queue_pushes[0]...);
        f("queue_pushes.linear", MergeRule::Sum, s.queue_pushes[1]...);
        f("queue_pushes.global", MergeRule::Sum, s.queue_pushes[2]...);
        f("max_queue_depth", MergeRule::Max, s.max_queue_depth...);
        f("trail_saves", MergeRule::Sum, s.trail_saves...);
        f("trail_snapshots", MergeRule::Sum, s.trail_snapshots...);
        f("trail_bytes", MergeRule::Sum, s.trail_bytes...);
    }
};

/// Per-propagator-class profile: how much work a class of propagators did
/// and what it bought. Filled by a Store with profiling enabled.
struct PropProfile {
    const char* cls = nullptr;  ///< Propagator::class_name() (static string)
    std::int64_t runs = 0;            ///< propagate() executions
    std::int64_t domain_changes = 0;  ///< prunings performed by those runs
    std::int64_t failures = 0;        ///< failures detected by those runs
    std::int64_t time_us = 0;         ///< wall time spent inside propagate()

    /// The field table of the counters (cls is the merge key, not a field);
    /// exported as "prop.<cls>.<name>".
    template <typename F, typename... S>
    static constexpr void for_each_field(F&& f, S&... s) {
        f("runs", MergeRule::Sum, s.runs...);
        f("domain_changes", MergeRule::Sum, s.domain_changes...);
        f("failures", MergeRule::Sum, s.failures...);
        f("time_us", MergeRule::Sum, s.time_us...);
    }
};

class Store {
public:
    Store() = default;
    Store(Store&&) = default;
    Store& operator=(Store&&) = default;
    Store& operator=(const Store&) = delete;

    /// A faithful copy of this store at root level: domains, watchers, the
    /// pending propagation queue, counters and profile, with every
    /// propagator deep-copied through Propagator::clone. Solving the copy
    /// walks exactly the tree solving this store would, so one emission
    /// serves any number of searches (portfolio workers). Reads
    /// this store only: several threads may clone one const store at once.
    /// The trace attachment is not copied.
    Store clone() const;

    // -- variables -----------------------------------------------------------
    IntVar new_var(int lo, int hi);
    IntVar new_var(Domain dom);
    BoolVar new_bool();

    std::size_t num_vars() const { return doms_.size(); }
    std::size_t num_propagators() const { return props_.size(); }
    const Domain& dom(IntVar x) const { return doms_[check(x)]; }

    // Bounds/size/fixedness reads come from parallel SoA metadata arrays —
    // one cache line serves the bound queries of many adjacent variables,
    // and no query ever touches the Domain object's interval list. The
    // arrays are synced on every domain change and on every trail restore.
    // Bounds of a failed (empty) variable are stale, so min/max keep the
    // non-empty precondition Domain::min()/max() always enforced.
    int min(IntVar x) const {
        const std::size_t i = check(x);
        REVEC_EXPECTS(meta_size_[i] > 0);
        return meta_min_[i];
    }
    int max(IntVar x) const {
        const std::size_t i = check(x);
        REVEC_EXPECTS(meta_size_[i] > 0);
        return meta_max_[i];
    }
    bool fixed(IntVar x) const { return meta_size_[check(x)] == 1; }
    int value(IntVar x) const {
        const std::size_t i = check(x);
        REVEC_EXPECTS(meta_size_[i] == 1);
        return meta_min_[i];
    }
    std::int64_t size(IntVar x) const { return meta_size_[check(x)]; }

    // -- domain modification (propagator + search API) -----------------------
    // Each returns false iff the domain became empty (failure). All record
    // enough trail state that backtracking restores the previous domain
    // bit-exactly. 64-bit bounds outside int range are handled explicitly:
    // requests that cannot affect any representable value are no-ops,
    // requests that exclude every representable value fail.
    bool set_min(IntVar x, std::int64_t v);
    bool set_max(IntVar x, std::int64_t v);
    bool assign(IntVar x, std::int64_t v);
    bool remove(IntVar x, std::int64_t v);
    bool remove_range(IntVar x, std::int64_t lo, std::int64_t hi);
    bool intersect(IntVar x, const Domain& d);

    // -- propagators ----------------------------------------------------------
    /// Take ownership of `p`, subscribe it per `watches` (event-masked),
    /// and schedule it.
    void post(std::unique_ptr<Propagator> p, const std::vector<Watch>& watches);
    /// Convenience overload: subscribe to every event of every watched var.
    void post(std::unique_ptr<Propagator> p, const std::vector<IntVar>& watched);

    /// Run the propagation queue to fixpoint. Returns false on failure.
    bool propagate();

    bool failed() const { return failed_; }

    // -- search support --------------------------------------------------------
    /// Open a new choice level. Returns the new level number.
    int push_level();
    /// Undo all domain changes made since the matching push_level, clear the
    /// failure flag and the propagation queue.
    void pop_level();
    int level() const { return level_; }

    const PropagationStats& stats() const { return stats_; }

    // -- observability ---------------------------------------------------------
    /// Attach a trace buffer; the store emits Node-level instants into it
    /// (currently "escalation" when a bypassed costlier bucket is
    /// interleaved). nullptr (the default) disables emission — each event
    /// site is then a single branch.
    void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }

    /// Start attributing per-propagator work (runs, domain changes,
    /// failures, wall time) to propagator classes. Adds a timer read per
    /// propagator execution; off by default.
    void enable_profiling();
    bool profiling() const { return profile_; }

    /// Profiled work aggregated by Propagator::class_name(), sorted by
    /// class name. Empty when profiling was never enabled.
    std::vector<PropProfile> profile_by_class() const;

private:
    /// Memberwise copy; public copies go through clone().
    Store(const Store&) = default;

    /// Bounds-checked index of x. Inline: this sits under every accessor
    /// propagators touch (hundreds of millions of calls per solve), so an
    /// out-of-line definition shows up in profiles.
    std::size_t check(IntVar x) const {
        REVEC_EXPECTS(x.valid() && static_cast<std::size_t>(x.index()) < doms_.size());
        return static_cast<std::size_t>(x.index());
    }
    /// Trail whatever is needed to restore doms_[idx] before mutating it
    /// (one Bounds, Min, Max or Snapshot record). A no-op at the root and
    /// once the variable is fully saved for the current level.
    void pre_mutate(std::size_t idx, bool pure_lo_clip, bool pure_hi_clip);
    /// Refresh the SoA metadata of one variable from its domain.
    void sync_meta(std::size_t idx);
    void on_change(std::size_t idx, int old_min, int old_max, bool was_fixed);
    void schedule(int prop_id);
    int pop_runnable();  ///< next queued propagator id, or -1
    void clear_queue();

    /// One trail record, 20 bytes. A Snapshot's pre-mutation Domain (taken
    /// only when a holed domain changes hole structure) lives on the
    /// snapshots_ side stack, which pop_level pops in step with the records.
    struct TrailEntry {
        enum class Kind : std::uint8_t {
            Min,       ///< undo a pure lower-bound clip; a = old min
            Max,       ///< undo a pure upper-bound clip; a = old max
            Bounds,    ///< reinstate hole-free pre-state [a, b] wholesale
            Snapshot,  ///< reinstate the top of snapshots_
        };
        Kind kind;
        std::int32_t var;
        int a = 0;
        int b = 0;
        std::int32_t prev_saved_level = -1;  ///< Bounds/Snapshot: old marker
    };
    static_assert(sizeof(TrailEntry) == 20);

    /// One watcher subscription on a variable, packed into 8 bytes: every
    /// domain change walks the variable's watcher list.
    struct Watcher {
        std::int32_t prop;
        EventMask mask : kNumEventKinds;
        std::int32_t watch : 32 - kNumEventKinds;  ///< post() list position; -1 = not advised
    };
    static_assert(sizeof(Watcher) == 8);

    /// FIFO bucket with an amortized O(1) pop-front.
    struct Bucket {
        std::vector<int> q;
        std::size_t head = 0;

        bool empty() const { return head == q.size(); }
        void push(int id) { q.push_back(id); }
        int pop() {
            const int id = q[head++];
            if (head == q.size()) {
                q.clear();
                head = 0;
            }
            return id;
        }
        std::size_t depth() const { return q.size() - head; }
        void clear() {
            q.clear();
            head = 0;
        }
    };

    /// The owned propagators, indexed by id. Copying deep-copies each one
    /// (Propagator::clone keeps the id), so a Store copies memberwise.
    struct Propagators : std::vector<std::unique_ptr<Propagator>> {
        using Base = std::vector<std::unique_ptr<Propagator>>;
        Propagators() = default;
        Propagators(Propagators&&) = default;
        Propagators& operator=(Propagators&&) = default;
        Propagators& operator=(const Propagators&) = delete;
        Propagators(const Propagators& other) : Base() {
            reserve(other.size());
            for (const auto& p : other) push_back(p->clone());
        }
    };

    std::vector<Domain> doms_;
    // SoA mirrors of the per-variable metadata propagators read hottest
    // (bounds and size), kept in sync with doms_ by sync_meta().
    std::vector<int> meta_min_;
    std::vector<int> meta_max_;
    std::vector<std::int64_t> meta_size_;
    /// Level of the last trail record that restores the variable's full
    /// pre-level state (Bounds or Snapshot); further records at that level
    /// are redundant. -1 = none.
    std::vector<std::int32_t> last_saved_level_;
    std::vector<std::vector<Watcher>> watchers_;

    Propagators props_;
    std::vector<std::uint8_t> prop_bucket_;  ///< cached priority per propagator
    std::vector<std::uint8_t> prop_idem_;    ///< cached idempotence per propagator
    std::array<Bucket, kNumPriorities> queue_;
    std::size_t queued_count_ = 0;
    int cheap_streak_ = 0;      ///< pops that bypassed a waiting costlier bucket
    std::uint32_t episode_ = 0; ///< propagate() episode id
    std::int64_t organic_pops_ = 0;      ///< non-escalated pops this episode
    std::int64_t episode_distinct_ = 0;  ///< distinct props organically popped
    std::vector<std::uint32_t> prop_run_ep_;  ///< episode a prop last popped in
    std::vector<char> queued_;
    int running_ = -1;  ///< id of the propagator currently executing

    std::vector<TrailEntry> trail_;
    std::vector<Domain> snapshots_;  ///< Snapshot payloads, one per Snapshot record
    std::vector<std::size_t> level_marks_;
    int level_ = 0;
    bool failed_ = false;

    PropagationStats stats_;

    /// Per-propagator profile slots, indexed by propagator id (sized on
    /// enable_profiling and on post while profiling).
    struct PropCounters {
        std::int64_t runs = 0;
        std::int64_t domain_changes = 0;
        std::int64_t failures = 0;
        std::int64_t time_ns = 0;  ///< converted to time_us once, on read
    };
    bool profile_ = false;
    std::vector<PropCounters> prof_;
    obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace revec::cp
