#include "revec/cp/count.hpp"

#include <memory>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

class BoolSum final : public Propagator {
public:
    BoolSum(std::vector<BoolVar> bools, IntVar total) : bools_(std::move(bools)), total_(total) {}

    bool propagate(Store& s) override {
        int ones = 0;
        int unfixed = 0;
        for (const BoolVar b : bools_) {
            if (s.fixed(b)) {
                ones += s.value(b);
            } else {
                ++unfixed;
            }
        }
        if (!s.set_min(total_, ones) || !s.set_max(total_, ones + unfixed)) return false;

        // If the bound is tight in either direction, force the unfixed bools.
        if (unfixed > 0) {
            if (s.min(total_) == ones + unfixed) {
                for (const BoolVar b : bools_) {
                    if (!s.fixed(b) && !s.assign(b, 1)) return false;
                }
            } else if (s.max(total_) == ones) {
                for (const BoolVar b : bools_) {
                    if (!s.fixed(b) && !s.assign(b, 0)) return false;
                }
            }
        }
        return true;
    }

    Priority priority() const override { return Priority::Linear; }

    const char* class_name() const override { return "BoolSum"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<BoolSum>(*this);
    }

private:
    std::vector<BoolVar> bools_;
    IntVar total_;
};

}  // namespace

void post_bool_sum(Store& store, std::vector<BoolVar> bools, IntVar total) {
    // Bools only matter once fixed; the total is read through its bounds.
    std::vector<Watch> watches;
    watches.reserve(bools.size() + 1);
    for (const BoolVar b : bools) watches.push_back({b, kEventFixed});
    watches.push_back({total, kEventBounds});
    store.post(std::make_unique<BoolSum>(std::move(bools), total), watches);
}

}  // namespace revec::cp
