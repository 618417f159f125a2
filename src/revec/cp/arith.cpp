#include "revec/cp/arith.hpp"

#include <algorithm>
#include <climits>
#include <memory>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

class MaxProp final : public Propagator {
public:
    MaxProp(IntVar z, std::vector<IntVar> xs) : z_(z), xs_(std::move(xs)) {
        REVEC_EXPECTS(!xs_.empty());
    }

    bool propagate(Store& s) override {
        // Each pass can move bounds an earlier rule read, so repeat until a
        // pass moves nothing: that is the local fixpoint.
        for (;;) {
            const std::int64_t changes = s.stats().domain_changes;
            if (!prune(s)) return false;
            if (s.stats().domain_changes == changes) return true;
        }
    }

    Priority priority() const override { return Priority::Linear; }
    bool idempotent() const override { return true; }

    const char* class_name() const override { return "MaxProp"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<MaxProp>(*this);
    }

private:
    /// One pass of the three bounds rules.
    bool prune(Store& s) const {
        // z's bounds from the xs.
        std::int64_t lb = s.min(xs_[0]);
        std::int64_t ub = s.max(xs_[0]);
        for (std::size_t i = 1; i < xs_.size(); ++i) {
            lb = std::max<std::int64_t>(lb, s.min(xs_[i]));
            ub = std::max<std::int64_t>(ub, s.max(xs_[i]));
        }
        if (!s.set_min(z_, lb) || !s.set_max(z_, ub)) return false;

        // Every x <= z.
        const std::int64_t zmax = s.max(z_);
        for (const IntVar x : xs_) {
            if (!s.set_max(x, zmax)) return false;
        }

        // If only one x can reach z's lower bound, it must.
        const std::int64_t zmin = s.min(z_);
        IntVar witness;
        int candidates = 0;
        for (const IntVar x : xs_) {
            if (s.max(x) >= zmin) {
                ++candidates;
                witness = x;
                if (candidates > 1) break;
            }
        }
        if (candidates == 0) return false;
        return candidates > 1 || s.set_min(witness, zmin);
    }

    IntVar z_;
    std::vector<IntVar> xs_;
};

/// y = f(x) over a table of f taken at post time: x's domain only shrinks,
/// so every later run looks images up instead of calling f.
class UnaryFun final : public Propagator {
public:
    /// Largest x span and image span tabulated.
    static constexpr std::int64_t kMaxSpan = std::int64_t{1} << 16;

    UnaryFun(const Domain& xdom, IntVar x, IntVar y, const std::function<int(int)>& f)
        : x_(x), y_(y), x_lo_(xdom.min()) {
        REVEC_EXPECTS(static_cast<std::int64_t>(xdom.max()) - x_lo_ < kMaxSpan);
        image_.resize(static_cast<std::size_t>(xdom.max() - x_lo_ + 1));
        xdom.for_each([&](int v) {
            const int w = f(v);
            image_[static_cast<std::size_t>(v - x_lo_)] = w;
            img_lo_ = std::min(img_lo_, w);
            img_hi_ = std::max(img_hi_, w);
        });
        REVEC_EXPECTS(static_cast<std::int64_t>(img_hi_) - img_lo_ < kMaxSpan);
        seen_.resize(static_cast<std::size_t>(img_hi_ - img_lo_ + 1));
    }

    bool propagate(Store& s) override {
        // y keeps only images of x's values.
        std::fill(seen_.begin(), seen_.end(), 0);
        s.dom(x_).for_each([&](int v) { seen_[static_cast<std::size_t>(image(v) - img_lo_)] = 1; });
        drop_.clear();
        s.dom(y_).for_each_run([&](int lo, int hi) {
            // Values off the image range go as one run on each side.
            if (lo < img_lo_) mark_drop(lo, std::min(hi, img_lo_ - 1));
            const std::int64_t last = std::min(hi, img_hi_);
            for (std::int64_t w = std::max(lo, img_lo_); w <= last; ++w) {
                if (seen_[static_cast<std::size_t>(w - img_lo_)] == 0) {
                    mark_drop(static_cast<int>(w), static_cast<int>(w));
                }
            }
            if (hi > img_hi_) mark_drop(std::max(lo, img_hi_ + 1), hi);
        });
        if (!apply_drops(s, y_)) return false;

        // x keeps only values whose image survived in y.
        const Domain& ydom = s.dom(y_);
        s.dom(x_).for_each([&](int v) {
            if (!ydom.contains(image(v))) mark_drop(v, v);
        });
        return apply_drops(s, x_);
    }

    Priority priority() const override { return Priority::Linear; }
    // One pass reaches the local fixpoint: after y is confined to the
    // image of x and x to the support of the new y, every surviving y
    // value keeps a surviving preimage, so a rerun changes nothing.
    bool idempotent() const override { return true; }

    const char* class_name() const override { return "UnaryFun"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<UnaryFun>(*this);
    }

private:
    int image(int v) const { return image_[static_cast<std::size_t>(v - x_lo_)]; }

    /// Queue [lo, hi] for removal, extending the last run when it follows.
    void mark_drop(int lo, int hi) {
        if (!drop_.empty() && drop_.back().hi + std::int64_t{1} == lo) {
            drop_.back().hi = hi;
        } else {
            drop_.push_back({lo, hi});
        }
    }

    /// Remove the queued runs from var and clear the queue.
    bool apply_drops(Store& s, IntVar var) {
        for (const Interval& r : drop_) {
            if (!s.remove_range(var, r.lo, r.hi)) return false;
        }
        drop_.clear();
        return true;
    }

    IntVar x_;
    IntVar y_;
    int x_lo_;
    std::vector<int> image_;  ///< f(x_lo_ + k); entries off x's post-time domain unused
    int img_lo_ = INT_MAX;  ///< smallest image
    int img_hi_ = INT_MIN;  ///< largest image
    std::vector<char> seen_;     ///< per-run scratch: image value img_lo_ + k reached
    std::vector<Interval> drop_; ///< per-run scratch: value runs to remove
};

}  // namespace

void post_max(Store& store, IntVar z, std::vector<IntVar> xs) {
    // Bounds-consistent: only reads min/max of z and the xs.
    std::vector<Watch> watches;
    watches.reserve(xs.size() + 1);
    for (const IntVar x : xs) watches.push_back({x, kEventBounds});
    watches.push_back({z, kEventBounds});
    store.post(std::make_unique<MaxProp>(z, std::move(xs)), watches);
}

void post_unary_fun(Store& store, IntVar x, IntVar y, const std::function<int(int)>& f) {
    store.post(std::make_unique<UnaryFun>(store.dom(x), x, y, f), {x, y});
}

}  // namespace revec::cp
