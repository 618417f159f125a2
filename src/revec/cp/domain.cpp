#include "revec/cp/domain.hpp"

#include <algorithm>
#include <sstream>

#include "revec/support/assert.hpp"

namespace revec::cp {

/// Scratch interval list for rebuild-style mutations. Output with at most
/// kInlineIvs intervals stays on the stack; longer lists spill into a
/// vector. adopt() moves the result into a Domain without re-copying the
/// spilled storage.
struct Domain::Builder {
    Interval buf[kInlineIvs];
    std::vector<Interval> spill;
    std::uint32_t n = 0;
    std::int64_t total = 0;  ///< value count across pushed intervals

    void push(Interval iv) {
        total += static_cast<std::int64_t>(iv.hi) - iv.lo + 1;
        if (n < kInlineIvs) {
            buf[n] = iv;
        } else {
            if (n == kInlineIvs) spill.assign(buf, buf + kInlineIvs);
            spill.push_back(iv);
        }
        ++n;
    }

    /// Structural comparison against a domain's interval list.
    bool equals(const Domain& d) const {
        const Interval* mine = n <= kInlineIvs ? buf : spill.data();
        return n == d.n_ && std::equal(mine, mine + n, d.data());
    }
};

void Domain::adopt(Builder&& b) {
    n_ = b.n;
    if (n_ <= kInlineIvs) {
        for (std::uint32_t i = 0; i < n_; ++i) small_[i] = b.buf[i];
        big_.clear();
    } else {
        big_ = std::move(b.spill);
    }
    nvals_ = b.total;
}

void Domain::drop_front(std::uint32_t k) {
    if (k == 0) return;
    REVEC_ASSERT(k <= n_);
    const std::uint32_t left = n_ - k;
    if (n_ > kInlineIvs) {
        if (left <= kInlineIvs) {
            for (std::uint32_t i = 0; i < left; ++i) small_[i] = big_[k + i];
            big_.clear();
        } else {
            big_.erase(big_.begin(), big_.begin() + static_cast<std::ptrdiff_t>(k));
        }
    } else {
        for (std::uint32_t i = 0; i < left; ++i) small_[i] = small_[k + i];
    }
    n_ = left;
}

void Domain::drop_back(std::uint32_t k) {
    if (k == 0) return;
    REVEC_ASSERT(k <= n_);
    const std::uint32_t left = n_ - k;
    if (n_ > kInlineIvs && left <= kInlineIvs) {
        for (std::uint32_t i = 0; i < left; ++i) small_[i] = big_[i];
        big_.clear();
    } else if (n_ > kInlineIvs) {
        big_.resize(left);
    }
    n_ = left;
}

Domain::Domain(int lo, int hi) {
    if (lo <= hi) {
        small_[0] = {lo, hi};
        n_ = 1;
        nvals_ = static_cast<std::int64_t>(hi) - lo + 1;
    }
}

Domain Domain::of_values(std::vector<int> values) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    Domain d;
    Builder b;
    for (const int v : values) {
        if (b.n > 0) {
            Interval& last = b.n <= kInlineIvs ? b.buf[b.n - 1] : b.spill.back();
            if (static_cast<std::int64_t>(last.hi) + 1 == v) {
                last.hi = v;
                b.total += 1;
                continue;
            }
        }
        b.push({v, v});
    }
    d.adopt(std::move(b));
    return d;
}

void Domain::clear_to_empty() {
    n_ = 0;
    big_.clear();
    nvals_ = 0;
}

int Domain::min() const {
    REVEC_EXPECTS(!empty());
    return data()[0].lo;
}

int Domain::max() const {
    REVEC_EXPECTS(!empty());
    return data()[n_ - 1].hi;
}

int Domain::value() const {
    REVEC_EXPECTS(is_fixed());
    return data()[0].lo;
}

bool Domain::contains(int v) const {
    const std::span<const Interval> ivs = intervals();
    // Binary search over intervals by lower bound.
    auto it = std::upper_bound(ivs.begin(), ivs.end(), v,
                               [](int x, const Interval& iv) { return x < iv.lo; });
    if (it == ivs.begin()) return false;
    --it;
    return v <= it->hi;
}

bool Domain::intersects_range(int lo, int hi) const {
    REVEC_EXPECTS(lo <= hi);
    for (const Interval& iv : intervals()) {
        if (iv.hi < lo) continue;
        return iv.lo <= hi;
    }
    return false;
}

bool Domain::next_value(int v, int& out) const {
    for (const Interval& iv : intervals()) {
        if (iv.hi < v) continue;
        out = std::max(iv.lo, v);
        return true;
    }
    return false;
}

bool Domain::next_run(int from, Interval& out) const {
    const std::span<const Interval> ivs = intervals();
    auto it = std::lower_bound(ivs.begin(), ivs.end(), from,
                               [](const Interval& iv, int x) { return iv.hi < x; });
    if (it == ivs.end()) return false;
    out.lo = std::max(it->lo, from);
    out.hi = it->hi;
    return true;
}

bool Domain::remove_below(int v) {
    if (empty() || min() >= v) return false;
    const Interval* d = data();
    std::uint32_t keep = 0;
    std::int64_t removed = 0;
    while (keep < n_ && d[keep].hi < v) {
        removed += static_cast<std::int64_t>(d[keep].hi) - d[keep].lo + 1;
        ++keep;
    }
    drop_front(keep);
    if (n_ > 0 && data()[0].lo < v) {
        removed += static_cast<std::int64_t>(v) - data()[0].lo;
        data()[0].lo = v;
    }
    nvals_ -= removed;
    return true;
}

bool Domain::remove_above(int v) {
    if (empty() || max() <= v) return false;
    const Interval* d = data();
    std::uint32_t drop = 0;
    std::int64_t removed = 0;
    while (drop < n_ && d[n_ - 1 - drop].lo > v) {
        removed += static_cast<std::int64_t>(d[n_ - 1 - drop].hi) - d[n_ - 1 - drop].lo + 1;
        ++drop;
    }
    drop_back(drop);
    if (n_ > 0 && data()[n_ - 1].hi > v) {
        removed += static_cast<std::int64_t>(data()[n_ - 1].hi) - v;
        data()[n_ - 1].hi = v;
    }
    nvals_ -= removed;
    return true;
}

bool Domain::remove_value(int v) { return remove_range(v, v); }

bool Domain::remove_range(int lo, int hi) {
    if (lo > hi || empty() || hi < min() || lo > max()) return false;
    // Route edge-touching removals through the clip paths so pure bound
    // tightenings never rebuild interval storage; the +/-1 cannot overflow
    // because the opposite bound strictly survives.
    if (lo <= min() && hi >= max()) {
        clear_to_empty();
        return true;
    }
    if (lo <= min()) return remove_below(hi + 1);
    if (hi >= max()) return remove_above(lo - 1);
    // Strictly interior removal: min < lo <= hi < max.
    Builder out;
    bool changed = false;
    for (const Interval& iv : intervals()) {
        if (iv.hi < lo || iv.lo > hi) {
            out.push(iv);
            continue;
        }
        changed = true;
        if (iv.lo < lo) out.push({iv.lo, lo - 1});
        if (iv.hi > hi) out.push({hi + 1, iv.hi});
    }
    if (changed) adopt(std::move(out));
    return changed;
}

bool Domain::intersect_with(const Domain& other) {
    if (empty()) return false;
    if (other.empty()) {
        clear_to_empty();
        return true;
    }
    // Merge sweep over both interval lists.
    Builder out;
    const Interval* xs = data();
    const Interval* ys = other.data();
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    while (a < n_ && b < other.n_) {
        const int lo = std::max(xs[a].lo, ys[b].lo);
        const int hi = std::min(xs[a].hi, ys[b].hi);
        if (lo <= hi) out.push({lo, hi});
        if (xs[a].hi < ys[b].hi) {
            ++a;
        } else {
            ++b;
        }
    }
    if (out.equals(*this)) return false;
    adopt(std::move(out));
    return true;
}

bool Domain::assign(int v) {
    REVEC_EXPECTS(contains(v));
    if (is_fixed()) return false;
    small_[0] = {v, v};
    n_ = 1;
    big_.clear();
    nvals_ = 1;
    return true;
}

bool operator==(const Domain& a, const Domain& b) {
    if (a.nvals_ != b.nvals_ || a.n_ != b.n_) return false;
    return std::equal(a.data(), a.data() + a.n_, b.data());
}

std::string Domain::to_string() const {
    std::ostringstream os;
    os << '{';
    bool first = true;
    for_each_run([&](int lo, int hi) {
        if (!first) os << ", ";
        first = false;
        if (lo == hi) {
            os << lo;
        } else {
            os << lo << ".." << hi;
        }
    });
    os << '}';
    return os.str();
}

}  // namespace revec::cp
