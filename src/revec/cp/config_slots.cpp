#include "revec/cp/config_slots.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

/// Rules (a) and (b) of eq. 3. Work units are the items (units 0 .. n-1,
/// woken when fixed) and the slot variables (units n .. n+S-1, woken on
/// any domain change). A run drains the queue of advised units, its own
/// prunings included, so it ends at its local fixpoint.
class ConfigSlotProp final : public Propagator {
public:
    explicit ConfigSlotProp(ConfigSlots items)
        : time_(std::move(items.time)), config_(std::move(items.config)),
          slot_(std::move(items.slot)) {
        REVEC_EXPECTS(config_.size() == time_.size());
        // Item variables sorted by configuration: configuration c owns
        // by_config_[first_[c] .. first_[c+1]).
        const int configs =
            config_.empty() ? 0 : *std::max_element(config_.begin(), config_.end()) + 1;
        std::vector<int> order(time_.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [this](int a, int b) { return config_of(a) < config_of(b); });
        for (const int i : order) by_config_.push_back(time_[static_cast<std::size_t>(i)]);
        first_.assign(static_cast<std::size_t>(configs) + 1, 0);
        for (const int c : config_) {
            REVEC_EXPECTS(c >= 0);
            ++first_[static_cast<std::size_t>(c) + 1];
        }
        std::partial_sum(first_.begin(), first_.end(), first_.begin());

        // Nothing has been seen yet: the first run visits every unit.
        const int units = num_items() + static_cast<int>(slot_.size());
        queued_.assign(static_cast<std::size_t>(units), 1);
        for (int u = units - 1; u >= 0; --u) queue_.push_back(u);
    }

    /// Items matter only once fixed; slots on any change.
    std::vector<Watch> watches() const {
        std::vector<Watch> ws;
        for (const IntVar t : time_) ws.push_back({t, kEventFixed});
        for (const IntVar c : slot_) ws.push_back({c, kEventDomain});
        return ws;
    }

    bool advised() const override { return true; }

    void advise(int watch, EventMask /*fired*/) override {
        char& q = queued_[static_cast<std::size_t>(watch)];
        if (q == 0) {
            q = 1;
            queue_.push_back(watch);
        }
    }

    bool propagate(Store& s) override {
        // A failed run leaves its queue behind; those units are revisited
        // later, which is redundant but harmless.
        while (!queue_.empty()) {
            const int unit = queue_.back();
            queue_.pop_back();
            queued_[static_cast<std::size_t>(unit)] = 0;
            if (!(unit < num_items() ? visit_item(s, unit) : visit_slot(s, unit - num_items()))) {
                return false;
            }
        }
        return true;
    }

    Priority priority() const override { return Priority::Unary; }
    bool idempotent() const override { return true; }

    const char* class_name() const override { return "ConfigSlots"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<ConfigSlotProp>(*this);
    }

private:
    int num_items() const { return static_cast<int>(time_.size()); }
    int config_of(int item) const { return config_[static_cast<std::size_t>(item)]; }

    /// Remove value v from every item of configurations [c_lo, c_hi).
    bool remove_from(Store& s, int c_lo, int c_hi, int v) {
        const auto begin = by_config_.begin() + first_[static_cast<std::size_t>(c_lo)];
        const auto end = by_config_.begin() + first_[static_cast<std::size_t>(c_hi)];
        return std::all_of(begin, end, [&s, v](IntVar x) { return s.remove(x, v); });
    }

    /// An item became fixed at v: rule (a) keeps every other configuration
    /// off v, rule (b) loads its configuration into slot v.
    bool visit_item(Store& s, int i) {
        const IntVar x = time_[static_cast<std::size_t>(i)];
        if (!s.fixed(x)) return true;
        const int v = s.value(x);
        const int c = config_of(i);
        const int configs = static_cast<int>(first_.size()) - 1;
        if (!remove_from(s, 0, c, v) || !remove_from(s, c + 1, configs, v)) return false;
        if (v >= 0 && v < static_cast<int>(slot_.size())) {
            return s.assign(slot_[static_cast<std::size_t>(v)], c);
        }
        return true;
    }

    /// Slot t's configuration variable changed: rule (b) keeps the items of
    /// every configuration it no longer allows off t.
    bool visit_slot(Store& s, int t) {
        const Domain& d = s.dom(slot_[static_cast<std::size_t>(t)]);
        const int configs = static_cast<int>(first_.size()) - 1;
        for (int c = 0; c < configs; ++c) {
            if (!d.contains(c) && !remove_from(s, c, c + 1, t)) return false;
        }
        return true;
    }

    std::vector<IntVar> time_;       ///< per item
    std::vector<int> config_;        ///< per item
    std::vector<IntVar> slot_;       ///< per slot value
    std::vector<IntVar> by_config_;  ///< item variables sorted by configuration
    std::vector<int> first_;         ///< per configuration: start in by_config_
    std::vector<int> queue_;         ///< advised units not yet visited
    std::vector<char> queued_;       ///< per unit: on queue_
};

}  // namespace

void post_config_slots(Store& store, ConfigSlots items) {
    auto p = std::make_unique<ConfigSlotProp>(std::move(items));
    const std::vector<Watch> ws = p->watches();
    store.post(std::move(p), ws);
}

}  // namespace revec::cp
