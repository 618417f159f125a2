#include "revec/cp/element.hpp"

#include <memory>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

/// result == array[index] with variable entries. Index values without a
/// compatible entry are pruned; the result is confined to the union of the
/// candidate entries' hulls; once the index fixes, entry and result are
/// channelled both ways.
class Element final : public Propagator {
public:
    Element(IntVar index, std::vector<IntVar> array, IntVar result)
        : index_(index), array_(std::move(array)), result_(result) {
        REVEC_EXPECTS(!array_.empty());
    }

    bool propagate(Store& s) override {
        if (!s.set_min(index_, 0)) return false;
        if (!s.set_max(index_, static_cast<int>(array_.size()) - 1)) return false;

        // Prune index values whose entry cannot equal the result, and
        // accumulate the hull of the surviving candidates. Dead indices
        // coalesce into maximal runs (merging across holes already absent
        // from the domain) so each run is one batched remove_range instead
        // of a per-value remove.
        std::int64_t lo = INT64_MAX;
        std::int64_t hi = INT64_MIN;
        std::vector<Interval> dead;
        bool prev_dead = false;
        s.dom(index_).for_each_run([&](int rlo, int rhi) {
            for (int i = rlo;; ++i) {
                const IntVar entry = array_[static_cast<std::size_t>(i)];
                const bool compatible =
                    s.min(entry) <= s.max(result_) && s.min(result_) <= s.max(entry);
                if (!compatible) {
                    if (prev_dead) {
                        dead.back().hi = i;
                    } else {
                        dead.push_back({i, i});
                    }
                    prev_dead = true;
                } else {
                    prev_dead = false;
                    lo = std::min<std::int64_t>(lo, s.min(entry));
                    hi = std::max<std::int64_t>(hi, s.max(entry));
                }
                if (i == rhi) break;
            }
        });
        for (const Interval& r : dead) {
            if (!s.remove_range(index_, r.lo, r.hi)) return false;
        }
        if (lo > hi) return false;  // no candidate left
        if (!s.set_min(result_, lo) || !s.set_max(result_, hi)) return false;

        if (s.fixed(index_)) {
            const IntVar entry = array_[static_cast<std::size_t>(s.value(index_))];
            if (!s.set_min(entry, s.min(result_)) || !s.set_max(entry, s.max(result_))) {
                return false;
            }
            if (!s.set_min(result_, s.min(entry)) || !s.set_max(result_, s.max(entry))) {
                return false;
            }
            if (!s.intersect(result_, s.dom(entry))) return false;
            if (!s.intersect(entry, s.dom(result_))) return false;
        }
        return true;
    }

    // Hole-sensitive on every side (index enumeration, domain channeling
    // once the index fixes), so it keeps the wake-on-any-change mask.
    Priority priority() const override { return Priority::Linear; }

    const char* class_name() const override { return "Element"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<Element>(*this);
    }

private:
    IntVar index_;
    std::vector<IntVar> array_;
    IntVar result_;
};

}  // namespace

void post_element(Store& store, IntVar index, std::vector<IntVar> array, IntVar result) {
    std::vector<IntVar> watched = array;
    watched.push_back(index);
    watched.push_back(result);
    store.post(std::make_unique<Element>(index, std::move(array), result), watched);
}

void post_element_const(Store& store, IntVar index, std::vector<int> values, IntVar result) {
    REVEC_EXPECTS(!values.empty());
    std::vector<IntVar> array;
    array.reserve(values.size());
    for (const int v : values) array.push_back(store.new_var(v, v));
    post_element(store, index, std::move(array), result);
}

}  // namespace revec::cp
