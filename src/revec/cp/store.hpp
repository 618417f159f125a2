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
//  * the trail records compact bound-change deltas and packed-bitmap word
//    diffs — a full domain snapshot is taken only when an
//    interval-represented holed domain changes hole structure.
// All three mechanisms are fixpoint-preserving; golden search counters in
// the tests pin the resulting search trees.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "revec/cp/domain.hpp"
#include "revec/cp/propagator.hpp"
#include "revec/cp/var.hpp"
#include "revec/support/assert.hpp"

namespace revec::obs {
class TraceBuffer;
class MetricsRegistry;
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
    std::int64_t trail_word_diffs = 0; ///< packed-domain word-diff records among them
    std::int64_t trail_bytes = 0;      ///< payload bytes trailed (snapshots
                                       ///< count their interval storage)
    std::int64_t packed_converts = 0;  ///< interval-to-bitmap representation switches

    /// Accumulate another store's counters (portfolio merge).
    void absorb(const PropagationStats& o);

    /// Export every counter into `m` under `prefix` (e.g. "engine.").
    /// Additive counters add into any existing value, so repeated exports
    /// from several workers sum like absorb(); max_queue_depth max-merges.
    void export_metrics(obs::MetricsRegistry& m, const std::string& prefix) const;
};

/// Per-propagator-class profile: how much work a class of propagators did
/// and what it bought. Filled by a Store with profiling enabled.
struct PropProfile {
    const char* cls = nullptr;  ///< Propagator::class_name() (static string)
    std::int64_t runs = 0;            ///< propagate() executions
    std::int64_t domain_changes = 0;  ///< prunings performed by those runs
    std::int64_t failures = 0;        ///< failures detected by those runs
    std::int64_t time_us = 0;         ///< wall time spent inside propagate()
};

/// Merge `from` into `into` by class name (portfolio merge).
void absorb_prop_profiles(std::vector<PropProfile>& into,
                          const std::vector<PropProfile>& from);

/// Export profiles as "prop.<Class>.runs" / ".domain_changes" / ".failures"
/// / ".time_us" counters (additive across repeated exports).
void export_prop_profile_metrics(const std::vector<PropProfile>& profiles,
                                 obs::MetricsRegistry& m);

class Store {
public:
    Store() = default;
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;

    // -- variables -----------------------------------------------------------
    IntVar new_var(int lo, int hi, std::string name = {});
    IntVar new_var(Domain dom, std::string name = {});
    BoolVar new_bool(std::string name = {});

    std::size_t num_vars() const { return doms_.size(); }
    const Domain& dom(IntVar x) const { return doms_[check(x)]; }
    const std::string& name(IntVar x) const { return names_[check(x)]; }

    // Bounds/size/fixedness reads come from parallel SoA metadata arrays —
    // one cache line serves the bound queries of many adjacent variables,
    // and no query ever touches the Domain object's representation. The
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

    /// Debug helper: render all variables and their domains.
    std::string dump() const;

private:
    /// Bounds-checked index of x. Inline: this sits under every accessor
    /// propagators touch (hundreds of millions of calls per solve), so an
    /// out-of-line definition shows up in profiles.
    std::size_t check(IntVar x) const {
        REVEC_EXPECTS(x.valid() && static_cast<std::size_t>(x.index()) < doms_.size());
        return static_cast<std::size_t>(x.index());
    }
    /// Trail whatever is needed to restore doms_[idx] before mutating it:
    /// Word records for a packed domain under the delta trail, interval
    /// records (Bounds/Min/Max/Snapshot) otherwise. A no-op once the
    /// variable is fully saved for the current level.
    void pre_mutate(std::size_t idx, bool pure_lo_clip, bool pure_hi_clip);
    void record_trail_interval(std::size_t idx, bool pure_lo_clip, bool pure_hi_clip);
    /// Push one Word record per nonzero bitmap word and mark the variable
    /// fully saved for the level.
    void record_trail_words(std::size_t idx, std::span<const std::uint64_t> words);
    /// Refresh the SoA metadata of one variable from its domain.
    void sync_meta(std::size_t idx);
    void on_change(std::size_t idx, int old_min, int old_max, bool was_fixed);
    void schedule(int prop_id);
    int pop_runnable();  ///< next queued propagator id, or -1
    void clear_queue();

    /// One trail record. Bound deltas and word diffs are 16-byte payloads;
    /// Snapshot carries a full pre-mutation Domain (taken only when an
    /// interval-represented domain changes hole structure). Packed domains
    /// never take the Min/Max/Bounds/Snapshot paths: their per-level record
    /// stream is word diffs only, so reverse replay never mixes bitmap
    /// restores with interval-storage restores.
    struct TrailEntry {
        enum class Kind : std::uint8_t {
            Min,       ///< undo a pure lower-bound clip; a = old min
            Max,       ///< undo a pure upper-bound clip; a = old max
            Bounds,    ///< reinstate hole-free pre-state [a, b] wholesale
            Snapshot,  ///< reinstate `saved`
            Word,      ///< reinstate bitmap word a to w (packed domains)
        };
        Kind kind;
        std::int32_t var;
        int a = 0;
        int b = 0;
        std::int32_t prev_saved_level = -1;  ///< Bounds/Snapshot/Word: old marker
        Domain saved;                        ///< Snapshot only
        std::uint64_t w = 0;                 ///< Word only: pre-mutation word
    };

    /// One watcher subscription on a variable.
    struct Watcher {
        std::int32_t prop;
        EventMask mask;
    };

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

    std::vector<Domain> doms_;
    std::vector<std::string> names_;
    // SoA mirrors of the per-variable metadata propagators read hottest:
    // bounds, size, and representation tag (Domain::Rep), kept in sync with
    // doms_ by sync_meta().
    std::vector<int> meta_min_;
    std::vector<int> meta_max_;
    std::vector<std::int64_t> meta_size_;
    std::vector<std::uint8_t> meta_tag_;
    /// Pre-mutation bitmap capture for intersect's in-place packed path
    /// (the only mutation whose change is known after the fact; mutations
    /// never nest, so one scratch buffer suffices).
    std::vector<std::uint64_t> scratch_words_;
    /// Level of the last trail record batch that restores the variable's
    /// full pre-level state (Bounds, Snapshot, or Word batch); further
    /// records at that level are redundant. -1 = none.
    std::vector<std::int32_t> last_saved_level_;
    std::vector<std::vector<Watcher>> watchers_;

    std::vector<std::unique_ptr<Propagator>> props_;
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
