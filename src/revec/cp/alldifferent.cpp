#include "revec/cp/alldifferent.hpp"

#include <algorithm>
#include <memory>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

class AllDifferent final : public Propagator {
public:
    explicit AllDifferent(std::vector<IntVar> vars) : vars_(std::move(vars)) {}

    bool propagate(Store& s) override {
        // 1. Value propagation: remove every assigned value from the others.
        for (std::size_t i = 0; i < vars_.size(); ++i) {
            if (!s.fixed(vars_[i])) continue;
            const int v = s.value(vars_[i]);
            for (std::size_t j = 0; j < vars_.size(); ++j) {
                if (j == i) continue;
                if (s.fixed(vars_[j]) && s.value(vars_[j]) == v) return false;
                if (!s.fixed(vars_[j]) && !s.remove(vars_[j], v)) return false;
            }
        }

        // 2. Hall intervals over the bounds: if the variables whose domains
        //    lie inside [a, b] saturate it, no other variable may use it;
        //    if they overflow it, fail. All scratch is member state — this
        //    propagator is hot enough that per-run allocation shows up, and
        //    the O(|bounds|² · n) scan runs over locally cached bounds
        //    (refreshed after every mutation, so the pruning sequence is
        //    identical to re-reading the store each probe).
        const std::size_t n = vars_.size();
        mins_.resize(n);
        maxs_.resize(n);
        bounds_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            mins_[i] = s.min(vars_[i]);
            maxs_[i] = s.max(vars_[i]);
            bounds_.push_back(mins_[i]);
            bounds_.push_back(maxs_[i]);
        }
        std::sort(bounds_.begin(), bounds_.end());
        bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());

        for (std::size_t ai = 0; ai < bounds_.size(); ++ai) {
            for (std::size_t bi = ai; bi < bounds_.size(); ++bi) {
                const int a = bounds_[ai];
                const int b = bounds_[bi];
                const std::int64_t width = static_cast<std::int64_t>(b) - a + 1;
                // n variables can neither overflow nor saturate a wider
                // interval, and widths only grow with bi (bounds_ sorted).
                if (width > static_cast<std::int64_t>(n)) break;
                int inside = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    if (mins_[i] >= a && maxs_[i] <= b) ++inside;
                }
                if (inside > width) return false;
                if (inside == width) {
                    // Hall set: remove [a, b] from every variable outside it.
                    for (std::size_t i = 0; i < n; ++i) {
                        if (mins_[i] >= a && maxs_[i] <= b) continue;
                        if (!s.remove_range(vars_[i], a, b)) return false;
                        mins_[i] = s.min(vars_[i]);
                        maxs_[i] = s.max(vars_[i]);
                    }
                }
            }
        }
        return true;
    }

    Priority priority() const override { return Priority::Global; }

    const char* class_name() const override { return "AllDifferent"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<AllDifferent>(*this);
    }

private:
    std::vector<IntVar> vars_;
    std::vector<int> bounds_;  ///< per-run scratch
    std::vector<int> mins_;    ///< per-run scratch: cached SoA bounds
    std::vector<int> maxs_;    ///< per-run scratch: cached SoA bounds
};

}  // namespace

void post_all_different(Store& store, std::vector<IntVar> vars) {
    // Value propagation keys off FIXED, Hall intervals off the bounds;
    // interior hole removals change neither.
    std::vector<Watch> watches;
    watches.reserve(vars.size());
    for (const IntVar x : vars) watches.push_back({x, kEventBounds | kEventFixed});
    store.post(std::make_unique<AllDifferent>(std::move(vars)), watches);
}

}  // namespace revec::cp
