#include "revec/cp/diff2.hpp"

#include <algorithm>
#include <memory>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

/// Pairwise constructive-disjunction propagation. For each ordered pair the
/// four escape relations are
///   L: i left of j   (x_i + len_i <= x_j)
///   R: j left of i   (x_j + len_j <= x_i)
///   B: i below j     (y_i + h_i <= y_j)
///   A: j below i     (y_j + h_j <= y_i)
/// plus "i or j is empty" (len 0). If only one relation stays feasible under
/// the current bounds it is enforced with bounds propagation; if none stays
/// feasible the constraint fails.
///
/// A pair's pruning reads only its two rectangles, so a run revisits just
/// the pairs that touch a rectangle changed since it was last visited. The
/// store advises every watched change, this propagator's own prunings
/// included, and a run drains the dirty stack, so it ends at its own
/// fixpoint.
class Diff2 final : public Propagator {
public:
    explicit Diff2(std::vector<Rect> rects) : rects_(std::move(rects)) {
        for (const Rect& r : rects_) REVEC_EXPECTS(r.len_y >= 0);
        // A variable may belong to several rectangles (a shared lifetime
        // or row), but the store advises each variable once: group the
        // (variable, rectangle, events) uses by variable.
        struct Use {
            IntVar var;
            Member member;
        };
        std::vector<Use> uses;
        for (int i = 0; i < num_rects(); ++i) {
            const Rect& r = rects_[static_cast<std::size_t>(i)];
            // Of a length variable only the minimum is ever read (set_max
            // on it does not re-read its max).
            uses.push_back({r.x, {i, kEventBounds}});
            uses.push_back({r.y, {i, kEventBounds}});
            uses.push_back({r.len_x, {i, kEventMin}});
        }
        std::stable_sort(uses.begin(), uses.end(), [](const Use& a, const Use& b) {
            return a.var.index() < b.var.index();
        });
        for (std::size_t k = 0; k < uses.size(); ++k) {
            if (k == 0 || uses[k].var != uses[k - 1].var) {
                vars_.push_back({uses[k].var, 0});
                first_.push_back(static_cast<int>(members_.size()));
            }
            vars_.back().events |= uses[k].member.events;
            members_.push_back(uses[k].member);
        }
        first_.push_back(static_cast<int>(members_.size()));

        // Nothing has been seen yet: the first run visits every rectangle.
        dirty_.assign(rects_.size(), 1);
        for (int i = num_rects() - 1; i >= 0; --i) stack_.push_back(i);
    }

    const std::vector<Watch>& watches() const { return vars_; }

    bool advised() const override { return true; }

    void advise(int watch, EventMask fired) override {
        const auto k = static_cast<std::size_t>(watch);
        for (int m = first_[k]; m < first_[k + 1]; ++m) {
            const Member& use = members_[static_cast<std::size_t>(m)];
            if ((use.events & fired) == 0) continue;
            char& d = dirty_[static_cast<std::size_t>(use.rect)];
            if (d == 0) {
                d = 1;
                stack_.push_back(use.rect);
            }
        }
    }

    bool propagate(Store& s) override {
        while (!stack_.empty()) {
            const int i = stack_.back();
            stack_.pop_back();
            dirty_[static_cast<std::size_t>(i)] = 0;
            const Rect& a = rects_[static_cast<std::size_t>(i)];
            if (may_be_empty(s, a)) continue;  // escapes every pair
            for (int j = 0; j < num_rects(); ++j) {
                if (j == i) continue;
                if (!prune_pair(s, a, rects_[static_cast<std::size_t>(j)])) {
                    // The store backtracks to a fixpoint this run has seen.
                    for (const int k : stack_) dirty_[static_cast<std::size_t>(k)] = 0;
                    stack_.clear();
                    return false;
                }
            }
        }
        return true;
    }

    Priority priority() const override { return Priority::Global; }
    bool idempotent() const override { return true; }

    const char* class_name() const override { return "Diff2"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<Diff2>(*this);
    }

private:
    /// One use of a watched variable: the rectangle and the events of the
    /// variable that can change that rectangle's pairs.
    struct Member {
        int rect;
        EventMask events;
    };

    int num_rects() const { return static_cast<int>(rects_.size()); }

    /// A rectangle that may be empty (length 0) can always escape overlap.
    static bool may_be_empty(const Store& s, const Rect& r) {
        return s.min(r.len_x) == 0 || r.len_y == 0;
    }

    // Feasibility of "a left of b" under current bounds: min(x_a)+min(len_a)
    // <= max(x_b) must be satisfiable.
    static bool left_feasible(const Store& s, const Rect& a, const Rect& b) {
        return static_cast<std::int64_t>(s.min(a.x)) + s.min(a.len_x) <= s.max(b.x);
    }

    static bool below_feasible(const Store& s, const Rect& a, const Rect& b) {
        return static_cast<std::int64_t>(s.min(a.y)) + a.len_y <= s.max(b.y);
    }

    // Enforce x_a + len_a <= x_b with bounds propagation.
    static bool enforce_left(Store& s, const Rect& a, const Rect& b) {
        if (!s.set_min(b.x, static_cast<std::int64_t>(s.min(a.x)) + s.min(a.len_x))) return false;
        if (!s.set_max(a.x, static_cast<std::int64_t>(s.max(b.x)) - s.min(a.len_x))) return false;
        return s.set_max(a.len_x, static_cast<std::int64_t>(s.max(b.x)) - s.min(a.x));
    }

    static bool enforce_below(Store& s, const Rect& a, const Rect& b) {
        if (!s.set_min(b.y, static_cast<std::int64_t>(s.min(a.y)) + a.len_y)) return false;
        return s.set_max(a.y, static_cast<std::int64_t>(s.max(b.y)) - a.len_y);
    }

    static bool prune_pair(Store& s, const Rect& a, const Rect& b) {
        if (may_be_empty(s, a) || may_be_empty(s, b)) return true;
        const bool can_l = left_feasible(s, a, b);
        const bool can_r = left_feasible(s, b, a);
        const bool can_b = below_feasible(s, a, b);
        const bool can_a = below_feasible(s, b, a);
        const int feasible = int(can_l) + int(can_r) + int(can_b) + int(can_a);
        if (feasible == 0) return false;
        if (feasible > 1) return true;
        if (can_l) return enforce_left(s, a, b);
        if (can_r) return enforce_left(s, b, a);
        if (can_b) return enforce_below(s, a, b);
        return enforce_below(s, b, a);
    }

    std::vector<Rect> rects_;
    std::vector<Watch> vars_;      ///< distinct watched variables, events unioned
    std::vector<int> first_;       ///< per watched variable: start in members_
    std::vector<Member> members_;  ///< uses grouped by watched variable
    std::vector<int> stack_;       ///< dirty rectangles not yet visited
    std::vector<char> dirty_;      ///< per rectangle: on stack_
};

}  // namespace

void post_diff2(Store& store, std::vector<Rect> rects) {
    auto p = std::make_unique<Diff2>(std::move(rects));
    const std::vector<Watch> ws = p->watches();
    store.post(std::move(p), ws);
}

}  // namespace revec::cp
