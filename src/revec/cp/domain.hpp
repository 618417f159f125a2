// Finite integer domain with a hybrid representation. Contiguous ranges and
// mildly holed domains live as a sorted set of disjoint, non-adjacent closed
// intervals (small-buffer optimized: up to kInlineIvs intervals inline, so a
// fixed value or a plain range never touches the heap). Hole-rich domains
// whose span fits kPackedMaxWords 64-bit words switch — when packing is
// enabled for the instance, as the solver store does for every variable —
// into a word-packed bitmap: a 64-aligned base offset plus a fixed-stride
// word array, with min/max/size cached and maintained branch-free via
// ctz/clz/popcount so bound queries never walk an interval list. Domains
// whose span exceeds the packed budget keep the interval representation.
//
// This is the value type trailed by the solver store; all operations are
// value-semantic. Packing is pure representation: every query and mutation
// is bit-for-bit equivalent across representations, so search trees do not
// depend on it.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "revec/support/assert.hpp"

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

    /// Word budget of the packed representation: domains spanning at most
    /// 64 * kPackedMaxWords values may pack; wider ones stay interval-based.
    static constexpr std::uint32_t kPackedMaxWords = 64;

    /// Representation tag (also mirrored into the store's SoA metadata).
    enum class Rep : std::uint8_t {
        Range = 0,      ///< one contiguous interval
        Intervals = 1,  ///< >1 intervals (or empty)
        Packed = 2,     ///< word-packed bitmap
    };

    /// The empty domain.
    Domain() = default;

    /// The interval domain [lo, hi]; empty when lo > hi.
    Domain(int lo, int hi);

    Domain(const Domain&) = default;
    Domain& operator=(const Domain&) = default;
    // Moves leave the source empty so a moved-from domain is never read as
    // pointing into a stolen heap buffer.
    Domain(Domain&& o) noexcept
        : n_(o.n_),
          packed_(o.packed_),
          pack_ok_(o.pack_ok_),
          base_(o.base_),
          pmin_(o.pmin_),
          pmax_(o.pmax_),
          nvals_(o.nvals_),
          big_(std::move(o.big_)),
          words_(std::move(o.words_)) {
        small_[0] = o.small_[0];
        small_[1] = o.small_[1];
        o.n_ = 0;
        o.packed_ = false;
        o.nvals_ = 0;
    }
    Domain& operator=(Domain&& o) noexcept {
        small_[0] = o.small_[0];
        small_[1] = o.small_[1];
        n_ = o.n_;
        packed_ = o.packed_;
        pack_ok_ = o.pack_ok_;
        base_ = o.base_;
        pmin_ = o.pmin_;
        pmax_ = o.pmax_;
        nvals_ = o.nvals_;
        big_ = std::move(o.big_);
        words_ = std::move(o.words_);
        o.n_ = 0;
        o.packed_ = false;
        o.nvals_ = 0;
        return *this;
    }

    /// Domain holding exactly the given values (any order, duplicates ok).
    static Domain of_values(std::vector<int> values);

    bool empty() const { return nvals_ == 0; }
    bool is_fixed() const { return nvals_ == 1; }

    /// True when the domain is one contiguous interval (no holes).
    bool is_range() const {
        return nvals_ > 0 &&
               nvals_ == static_cast<std::int64_t>(max()) - min() + 1;
    }

    /// Current representation.
    Rep rep() const {
        if (packed_) return Rep::Packed;
        return n_ == 1 ? Rep::Range : Rep::Intervals;
    }
    bool packed() const { return packed_; }

    /// Allow this instance to switch hole-rich content into the packed
    /// representation (repacks immediately when already eligible). Off by
    /// default so raw Domain values stay interval-represented; the store
    /// enables it for every variable it creates.
    void enable_packing();

    /// Number of maximal runs of consecutive values (intervals for the
    /// interval representation; counted from the bitmap when packed).
    std::size_t num_intervals() const;

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
    /// callback, not one per value.
    template <typename Fn>
    void for_each_run(Fn&& fn) const {
        if (empty()) return;
        Interval r{};
        const int last = max();
        std::int64_t from = min();
        while (from <= last && next_run(static_cast<int>(from), r)) {
            fn(r.lo, r.hi);
            from = static_cast<std::int64_t>(r.hi) + 1;
        }
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

    /// Interval-representation storage; must not be called while packed
    /// (use next_run/for_each_run for representation-agnostic iteration).
    std::span<const Interval> intervals() const;

    // -- packed-representation accessors (trail word-diff support) ----------
    /// Bitmap words; empty span unless packed.
    std::span<const std::uint64_t> packed_words() const {
        return packed_ ? std::span<const std::uint64_t>(words_) :
                         std::span<const std::uint64_t>();
    }
    /// Value of bit 0 of word 0 (64-aligned); packed only.
    std::int64_t packed_base() const { return base_; }

    std::string to_string() const;

    /// Semantic equality: same value set, regardless of representation.
    friend bool operator==(const Domain& a, const Domain& b);

private:
    friend class Store;  // trail restore hooks below

    // -- trail-only restore hooks (Store::pop_level) ------------------------
    // Each undoes exactly one recorded mutation; preconditions are
    // guaranteed by the store's trailing discipline, not re-checked here.
    /// Undo a pure lower-bound clip: reinstate the first interval's lo.
    /// The domain must still be interval-represented: mutations recorded as
    /// Min/Max never convert (clips don't repack), and conversions between
    /// the record and its replay are undone first by a later full-restore
    /// record on the LIFO trail.
    void restore_lo(int lo) {
        REVEC_ASSERT(!packed_);
        nvals_ += data()[0].lo - static_cast<std::int64_t>(lo);
        data()[0].lo = lo;
    }
    /// Undo a pure upper-bound clip: reinstate the last interval's hi.
    void restore_hi(int hi) {
        REVEC_ASSERT(!packed_);
        nvals_ += static_cast<std::int64_t>(hi) - data()[n_ - 1].hi;
        data()[n_ - 1].hi = hi;
    }
    /// Reinstate a hole-free pre-state [lo, hi] wholesale.
    void restore_single(int lo, int hi) {
        small_[0] = {lo, hi};
        n_ = 1;
        big_.clear();
        packed_ = false;
        words_.clear();  // keeps capacity for the next repack
        nvals_ = static_cast<std::int64_t>(hi) - lo + 1;
    }
    /// Reinstate one bitmap word (packed only). Mutations only clear bits,
    /// so restores only add them back: the cached bounds move monotonically
    /// outward and are updated exactly from the restored word.
    void restore_word(std::uint32_t widx, std::uint64_t old);

    struct Builder;  // scratch interval list (defined in domain.cpp)

    const Interval* data() const { return n_ <= kInlineIvs ? small_ : big_.data(); }
    Interval* data() { return n_ <= kInlineIvs ? small_ : big_.data(); }

    void drop_front(std::uint32_t k);
    void drop_back(std::uint32_t k);
    void adopt(Builder&& b);
    void check_invariant() const;

    /// Switch interval content into the packed representation when packing
    /// is enabled, the domain has holes, and the span fits the word budget.
    void maybe_pack();
    void clear_to_empty();

    // Packed-representation internals. Word/bit of value v (v >= base_).
    std::size_t word_of(std::int64_t v) const {
        return static_cast<std::size_t>((v - base_) >> 6);
    }
    std::uint64_t bit_of(std::int64_t v) const {
        return std::uint64_t{1} << ((v - base_) & 63);
    }
    std::int64_t packed_end() const {  // one past the last representable value
        return base_ + static_cast<std::int64_t>(words_.size()) * 64;
    }
    /// Smallest set bit >= from (packed; from <= pmax_ required).
    int packed_next_set(std::int64_t from) const;
    /// Smallest clear bit >= from (packed; clamped by the span end).
    std::int64_t packed_next_clear(std::int64_t from) const;
    /// Recompute pmin_ upward from `from` after bits below were cleared.
    void packed_rescan_min(std::int64_t from);
    /// Recompute pmax_ downward from `from` after bits above were cleared.
    void packed_rescan_max(std::int64_t from);
    /// Bitmap of `other`'s values over this domain's base/stride.
    void write_mask(const Domain& other, std::uint64_t* mask) const;
    /// AND the bitmap with `mask`; updates size/bounds. True iff changed.
    bool packed_apply_mask(const std::uint64_t* mask);

    // Interval-representation invariant: intervals live in small_ when
    // n_ <= kInlineIvs, in big_ otherwise; big_ is logically empty (but may
    // retain capacity) while the inline buffer is active. While packed,
    // n_ == 0 and both interval buffers are logically empty; words_ holds
    // the fixed-stride bitmap and pmin_/pmax_/nvals_ the cached metadata.
    Interval small_[kInlineIvs] = {};
    std::uint32_t n_ = 0;
    bool packed_ = false;
    bool pack_ok_ = false;
    std::int64_t base_ = 0;
    int pmin_ = 0;
    int pmax_ = 0;
    std::int64_t nvals_ = 0;
    std::vector<Interval> big_;
    std::vector<std::uint64_t> words_;
};

}  // namespace revec::cp
