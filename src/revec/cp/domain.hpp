// Finite integer domain: a sorted set of disjoint, non-adjacent closed
// intervals, small-buffer optimized — up to kInlineIvs intervals live
// inline, so a fixed value or a plain range never touches the heap. The
// value count is cached across mutations, so size() is O(1).
//
// This is the value type trailed by the solver store; all operations are
// value-semantic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace revec::cp {

class Store;

/// One closed interval [lo, hi].
struct Interval {
    int lo;
    int hi;
    friend bool operator==(const Interval&, const Interval&) = default;
};

/// A finite set of integers. An empty domain represents failure.
class Domain {
public:
    /// Intervals stored inline (no heap) — covers fixed values and ranges.
    static constexpr std::uint32_t kInlineIvs = 2;

    /// The empty domain.
    Domain() = default;

    /// The interval domain [lo, hi]; empty when lo > hi.
    Domain(int lo, int hi);

    Domain(const Domain&) = default;
    Domain& operator=(const Domain&) = default;
    // Moves leave the source empty so a moved-from domain is never read as
    // pointing into a stolen heap buffer.
    Domain(Domain&& o) noexcept : n_(o.n_), nvals_(o.nvals_), big_(std::move(o.big_)) {
        small_[0] = o.small_[0];
        small_[1] = o.small_[1];
        o.n_ = 0;
        o.nvals_ = 0;
    }
    Domain& operator=(Domain&& o) noexcept {
        small_[0] = o.small_[0];
        small_[1] = o.small_[1];
        n_ = o.n_;
        nvals_ = o.nvals_;
        big_ = std::move(o.big_);
        o.n_ = 0;
        o.nvals_ = 0;
        return *this;
    }

    /// Domain holding exactly the given values (any order, duplicates ok).
    static Domain of_values(std::vector<int> values);

    bool empty() const { return nvals_ == 0; }
    bool is_fixed() const { return nvals_ == 1; }

    /// True when the domain is one contiguous interval (no holes).
    bool is_range() const { return n_ == 1; }

    /// Number of maximal runs of consecutive values.
    std::size_t num_intervals() const { return n_; }

    /// Number of values in the domain. O(1): cached across mutations.
    std::int64_t size() const { return nvals_; }

    /// Smallest value; domain must be non-empty.
    int min() const;
    /// Largest value; domain must be non-empty.
    int max() const;
    /// The single value of a fixed domain; domain must be fixed.
    int value() const;

    bool contains(int v) const;

    /// True iff some domain value lies in [lo, hi] (lo <= hi required).
    bool intersects_range(int lo, int hi) const;

    /// Smallest domain value >= v, or nullopt-like sentinel via `found`.
    bool next_value(int v, int& out) const;

    /// The first maximal run [out.lo, out.hi] whose end is >= from,
    /// truncated at the front to start no earlier than `from`. Returns
    /// false when no domain value >= from exists.
    bool next_run(int from, Interval& out) const;

    // -- mutation; each returns true if the domain changed ------------------
    bool remove_below(int v);
    bool remove_above(int v);
    bool remove_value(int v);
    bool remove_range(int lo, int hi);
    /// Keep only values also present in `other`.
    bool intersect_with(const Domain& other);
    /// Reduce to the single value v (caller guarantees contains(v)).
    bool assign(int v);

    /// Call `fn(lo, hi)` for every maximal run of consecutive values in
    /// ascending order — the block-iteration primitive: wide ranges are one
    /// callback, not one per value. `fn` must not mutate this domain.
    template <typename Fn>
    void for_each_run(Fn&& fn) const {
        for (const Interval& iv : intervals()) fn(iv.lo, iv.hi);
    }

    /// Call `fn(v)` for every value in ascending order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for_each_run([&](int lo, int hi) {
            for (int v = lo;; ++v) {
                fn(v);
                if (v == hi) break;  // avoids overflow at INT_MAX
            }
        });
    }

    /// The maximal runs, ascending.
    std::span<const Interval> intervals() const { return {data(), n_}; }

    std::string to_string() const;

    /// Same value set (the interval list is canonical).
    friend bool operator==(const Domain& a, const Domain& b);

private:
    friend class Store;  // trail restore hooks below

    // -- trail-only restore hooks (Store::pop_level) ------------------------
    // Each undoes exactly one recorded mutation; preconditions are
    // guaranteed by the store's trailing discipline, not re-checked here.
    /// Undo a pure lower-bound clip: reinstate the first interval's lo.
    void restore_lo(int lo) {
        nvals_ += data()[0].lo - static_cast<std::int64_t>(lo);
        data()[0].lo = lo;
    }
    /// Undo a pure upper-bound clip: reinstate the last interval's hi.
    void restore_hi(int hi) {
        nvals_ += static_cast<std::int64_t>(hi) - data()[n_ - 1].hi;
        data()[n_ - 1].hi = hi;
    }
    /// Reinstate a hole-free pre-state [lo, hi] wholesale.
    void restore_single(int lo, int hi) {
        small_[0] = {lo, hi};
        n_ = 1;
        big_.clear();
        nvals_ = static_cast<std::int64_t>(hi) - lo + 1;
    }

    struct Builder;  // scratch interval list (defined in domain.cpp)

    const Interval* data() const { return n_ <= kInlineIvs ? small_ : big_.data(); }
    Interval* data() { return n_ <= kInlineIvs ? small_ : big_.data(); }

    void drop_front(std::uint32_t k);
    void drop_back(std::uint32_t k);
    void adopt(Builder&& b);
    void clear_to_empty();

    // Intervals live in small_ when n_ <= kInlineIvs, in big_ otherwise;
    // big_ is logically empty (but may retain capacity) while the inline
    // buffer is active.
    Interval small_[kInlineIvs] = {};
    std::uint32_t n_ = 0;
    std::int64_t nvals_ = 0;
    std::vector<Interval> big_;
};

}  // namespace revec::cp
