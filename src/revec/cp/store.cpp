#include "revec/cp/store.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <map>
#include <string_view>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

/// Clamp a 64-bit bound into the int domain value range.
int clamp_value(std::int64_t v) {
    if (v < INT_MIN) return INT_MIN;
    if (v > INT_MAX) return INT_MAX;
    return static_cast<int>(v);
}

/// Approximate trailed payload bytes of a full interval-domain snapshot:
/// the record header plus any heap-resident interval storage.
std::int64_t snapshot_bytes(const Domain& d) {
    const auto n = static_cast<std::int64_t>(d.num_intervals());
    return 16 + (n > static_cast<std::int64_t>(Domain::kInlineIvs) ? n * 8 : 0);
}

}  // namespace

Store Store::clone() const {
    REVEC_EXPECTS(level_ == 0);  // no trail to copy: root state only
    return Store(*this);
}

IntVar Store::new_var(int lo, int hi) { return new_var(Domain(lo, hi)); }

IntVar Store::new_var(Domain dom) {
    REVEC_EXPECTS(!dom.empty());
    REVEC_EXPECTS(level_ == 0);  // variables are created before search starts
    const auto idx = static_cast<std::int32_t>(doms_.size());
    doms_.push_back(std::move(dom));
    last_saved_level_.push_back(-1);
    watchers_.emplace_back();
    meta_min_.push_back(0);
    meta_max_.push_back(0);
    meta_size_.push_back(0);
    sync_meta(static_cast<std::size_t>(idx));
    return IntVar(idx);
}

BoolVar Store::new_bool() { return new_var(0, 1); }

void Store::sync_meta(std::size_t idx) {
    const Domain& d = doms_[idx];
    const std::int64_t n = d.size();
    meta_size_[idx] = n;
    if (n > 0) {
        meta_min_[idx] = d.min();
        meta_max_[idx] = d.max();
    }
}

void Store::pre_mutate(std::size_t idx, bool pure_lo_clip, bool pure_hi_clip) {
    if (level_ == 0) return;  // root-level changes are permanent
    if (last_saved_level_[idx] == level_) return;  // full restore trailed
    const Domain& d = doms_[idx];
    const auto var = static_cast<std::int32_t>(idx);
    ++stats_.trail_saves;

    if (d.is_range()) {
        // Hole-free pre-state: one Bounds record reinstates it wholesale,
        // whatever the mutation does — this is the dominant case and it
        // also marks the variable fully saved for this level.
        trail_.push_back(
            {TrailEntry::Kind::Bounds, var, d.min(), d.max(), last_saved_level_[idx]});
        last_saved_level_[idx] = level_;
        stats_.trail_bytes += 12;
        return;
    }
    if (pure_lo_clip || pure_hi_clip) {
        // Bound clip of a hole-carrying domain: the clipped end interval
        // survives, so restoring its old bound undoes the mutation.
        const auto kind = pure_lo_clip ? TrailEntry::Kind::Min : TrailEntry::Kind::Max;
        const std::size_t mark = level_marks_.back();
        if (trail_.size() > mark && trail_.back().kind == kind && trail_.back().var == var) {
            --stats_.trail_saves;  // adjacent same-kind clip: older record wins
            return;
        }
        trail_.push_back({kind, var, pure_lo_clip ? d.min() : d.max()});
        stats_.trail_bytes += 8;
        return;
    }
    // Hole structure changes: full snapshot.
    trail_.push_back({TrailEntry::Kind::Snapshot, var, 0, 0, last_saved_level_[idx]});
    snapshots_.push_back(d);
    last_saved_level_[idx] = level_;
    ++stats_.trail_snapshots;
    stats_.trail_bytes += snapshot_bytes(d);
}

void Store::on_change(std::size_t idx, int old_min, int old_max, bool was_fixed) {
    ++stats_.domain_changes;
    const Domain& d = doms_[idx];
    sync_meta(idx);
    if (d.empty()) {
        failed_ = true;
        return;
    }
    EventMask fired = kEventDomain;
    if (d.min() != old_min) fired |= kEventMin;
    if (d.max() != old_max) fired |= kEventMax;
    if (!was_fixed && d.is_fixed()) fired |= kEventFixed;
    for (int k = 0; k < kNumEventKinds; ++k) {
        if (fired & (1u << k)) ++stats_.events[static_cast<std::size_t>(k)];
    }
    for (const Watcher& w : watchers_[idx]) {
        if ((w.mask & fired) == 0) {
            ++stats_.wakeups_filtered;
            continue;
        }
        ++stats_.wakeups;
        if (w.watch >= 0) props_[static_cast<std::size_t>(w.prop)]->advise(w.watch, fired);
        schedule(w.prop);
    }
}

void Store::schedule(int prop_id) {
    const auto p = static_cast<std::size_t>(prop_id);
    if (prop_id == running_ && prop_idem_[p] != 0) {
        ++stats_.self_wakeups_suppressed;
        return;
    }
    if (queued_[p]) return;
    queued_[p] = 1;
    const std::uint8_t bucket = prop_bucket_[p];
    queue_[bucket].push(prop_id);
    ++queued_count_;
    ++stats_.queue_pushes[bucket];
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth, static_cast<std::int64_t>(queued_count_));
}

int Store::pop_runnable() {
    // Cheapest first: waking watchers coalesce while a costlier propagator
    // waits, so it runs once against the settled cheap fixpoint.
    for (Bucket& b : queue_) {
        if (b.empty()) continue;
        --queued_count_;
        return b.pop();
    }
    return -1;
}

void Store::clear_queue() {
    for (Bucket& b : queue_) {
        while (!b.empty()) queued_[static_cast<std::size_t>(b.pop())] = 0;
        b.clear();
    }
    queued_count_ = 0;
}

bool Store::set_min(IntVar x, std::int64_t v) {
    if (failed_) return false;
    if (v > INT_MAX) {
        failed_ = true;
        return false;
    }
    if (v <= INT_MIN) return true;  // cannot exclude any representable value
    const std::size_t i = check(x);
    Domain& d = doms_[i];
    const int vv = static_cast<int>(v);
    if (d.min() >= vv) return true;
    const int old_min = d.min();
    const int old_max = d.max();
    const bool was_fixed = d.is_fixed();
    // Pure clip iff the first interval survives (keeps some value >= vv).
    const bool pure_lo = vv <= d.intervals().front().hi;
    pre_mutate(i, pure_lo, false);
    d.remove_below(vv);
    on_change(i, old_min, old_max, was_fixed);
    return !failed_;
}

bool Store::set_max(IntVar x, std::int64_t v) {
    if (failed_) return false;
    if (v < INT_MIN) {
        failed_ = true;
        return false;
    }
    if (v >= INT_MAX) return true;
    const std::size_t i = check(x);
    Domain& d = doms_[i];
    const int vv = static_cast<int>(v);
    if (d.max() <= vv) return true;
    const int old_min = d.min();
    const int old_max = d.max();
    const bool was_fixed = d.is_fixed();
    const bool pure_hi = vv >= d.intervals().back().lo;
    pre_mutate(i, false, pure_hi);
    d.remove_above(vv);
    on_change(i, old_min, old_max, was_fixed);
    return !failed_;
}

bool Store::assign(IntVar x, std::int64_t v) {
    if (failed_) return false;
    const std::size_t i = check(x);
    Domain& d = doms_[i];
    if (v < INT_MIN || v > INT_MAX || !d.contains(static_cast<int>(v))) {
        failed_ = true;
        return false;
    }
    if (d.is_fixed()) return true;
    const int old_min = d.min();
    const int old_max = d.max();
    pre_mutate(i, false, false);
    d.assign(static_cast<int>(v));
    on_change(i, old_min, old_max, /*was_fixed=*/false);
    return !failed_;
}

bool Store::remove(IntVar x, std::int64_t v) {
    if (failed_) return false;
    if (v < INT_MIN || v > INT_MAX) return true;
    return remove_range(x, v, v);
}

bool Store::remove_range(IntVar x, std::int64_t lo, std::int64_t hi) {
    if (failed_) return false;
    if (lo > hi || hi < INT_MIN || lo > INT_MAX) return true;  // no representable value
    const std::size_t i = check(x);
    Domain& d = doms_[i];
    const int l = clamp_value(lo);
    const int h = clamp_value(hi);
    if (!d.intersects_range(l, h)) return true;
    const int old_min = d.min();
    const int old_max = d.max();
    const bool was_fixed = d.is_fixed();
    // Edge-touching removals are pure clips (Domain routes them through
    // remove_below/remove_above), so they keep compact records.
    const Interval first = d.intervals().front();
    const Interval last = d.intervals().back();
    const bool pure_lo = l <= old_min && h < old_max && h >= first.lo && h < first.hi;
    const bool pure_hi = h >= old_max && l > old_min && l <= last.hi && l > last.lo;
    pre_mutate(i, pure_lo, pure_hi);
    d.remove_range(l, h);
    on_change(i, old_min, old_max, was_fixed);
    return !failed_;
}

bool Store::intersect(IntVar x, const Domain& nd) {
    if (failed_) return false;
    const std::size_t i = check(x);
    Domain& d = doms_[i];
    Domain tmp = d;
    if (!tmp.intersect_with(nd)) return true;
    const int old_min = d.min();
    const int old_max = d.max();
    const bool was_fixed = d.is_fixed();
    pre_mutate(i, false, false);  // must see the pre-mutation state
    d = std::move(tmp);
    on_change(i, old_min, old_max, was_fixed);
    return !failed_;
}

void Store::post(std::unique_ptr<Propagator> p, const std::vector<Watch>& watches) {
    REVEC_EXPECTS(p != nullptr);
    const int id = static_cast<int>(props_.size());
    p->id_ = id;
    auto bucket = static_cast<std::uint8_t>(p->priority());
    REVEC_EXPECTS(bucket < kNumPriorities);
    prop_bucket_.push_back(bucket);
    prop_idem_.push_back(p->idempotent() ? 1 : 0);
    props_.push_back(std::move(p));
    queued_.push_back(0);
    if (profile_) prof_.resize(props_.size());
    const bool advised = props_.back()->advised();
    // Positions must fit Watcher::watch (signed, 32 - kNumEventKinds bits).
    REVEC_EXPECTS(watches.size() <= (std::size_t{1} << (31 - kNumEventKinds)));
    for (std::size_t k = 0; k < watches.size(); ++k) {
        const Watch& w = watches[k];
        auto& list = watchers_[check(w.var)];
        const auto it = std::find_if(list.begin(), list.end(),
                                     [id](const Watcher& e) { return e.prop == id; });
        if (it == list.end()) {
            list.push_back({id, w.events, advised ? static_cast<std::int32_t>(k) : -1});
        } else {
            REVEC_EXPECTS(!advised);  // an advice names exactly one watch
            it->mask |= w.events;  // duplicate watch: union of the masks
        }
    }
    schedule(id);
}

void Store::post(std::unique_ptr<Propagator> p, const std::vector<IntVar>& watched) {
    std::vector<Watch> ws;
    ws.reserve(watched.size());
    for (const IntVar x : watched) ws.push_back({x, kEventAll});
    post(std::move(p), ws);
}

bool Store::propagate() {
    while (!failed_) {
        const int id = pop_runnable();
        if (id < 0) break;
        queued_[static_cast<std::size_t>(id)] = 0;
        ++stats_.propagations;
        running_ = id;
        bool ok;
        if (profile_) {
            // Attribute this run's work to the propagator: prunings as the
            // delta of the global change counter, wall time around the call,
            // failure whether it was detected directly (ok == false) or via
            // a domain wipe-out (failed_; the loop guard keeps it false on
            // entry).
            PropCounters& pc = prof_[static_cast<std::size_t>(id)];
            const std::int64_t changes_before = stats_.domain_changes;
            const auto t0 = std::chrono::steady_clock::now();
            ok = props_[static_cast<std::size_t>(id)]->propagate(*this);
            pc.time_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
            ++pc.runs;
            pc.domain_changes += stats_.domain_changes - changes_before;
            if (!ok || failed_) ++pc.failures;
        } else {
            ok = props_[static_cast<std::size_t>(id)]->propagate(*this);
        }
        running_ = -1;
        if (!ok) {
            failed_ = true;
            break;
        }
    }
    if (failed_) {
        clear_queue();
        return false;
    }
    return true;
}

void Store::enable_profiling() {
    profile_ = true;
    prof_.resize(props_.size());
}

std::vector<PropProfile> Store::profile_by_class() const {
    // Aggregate per-id counters by class name; std::map keys give the
    // sorted-by-class output order directly. time_us sums nanoseconds until
    // the single conversion below, so sub-microsecond runs still add up.
    std::map<std::string_view, PropProfile> by_class;
    for (std::size_t id = 0; id < prof_.size(); ++id) {
        const PropCounters& pc = prof_[id];
        const char* cls = props_[id]->class_name();
        PropProfile& agg = by_class[cls];
        agg.cls = cls;
        agg.runs += pc.runs;
        agg.domain_changes += pc.domain_changes;
        agg.failures += pc.failures;
        agg.time_us += pc.time_ns;
    }
    std::vector<PropProfile> out;
    out.reserve(by_class.size());
    for (auto& [cls, p] : by_class) {
        p.time_us /= 1000;
        out.push_back(p);
    }
    return out;
}

int Store::push_level() {
    level_marks_.push_back(trail_.size());
    return ++level_;
}

void Store::pop_level() {
    REVEC_EXPECTS(level_ > 0);
    const std::size_t mark = level_marks_.back();
    level_marks_.pop_back();
    while (trail_.size() > mark) {
        const TrailEntry& e = trail_.back();
        const auto idx = static_cast<std::size_t>(e.var);
        switch (e.kind) {
            case TrailEntry::Kind::Min:
                doms_[idx].restore_lo(e.a);
                break;
            case TrailEntry::Kind::Max:
                doms_[idx].restore_hi(e.a);
                break;
            case TrailEntry::Kind::Bounds:
                doms_[idx].restore_single(e.a, e.b);
                last_saved_level_[idx] = e.prev_saved_level;
                break;
            case TrailEntry::Kind::Snapshot:
                doms_[idx] = std::move(snapshots_.back());
                snapshots_.pop_back();
                last_saved_level_[idx] = e.prev_saved_level;
                break;
        }
        sync_meta(idx);
        trail_.pop_back();
    }
    --level_;
    failed_ = false;
    clear_queue();
}

}  // namespace revec::cp
