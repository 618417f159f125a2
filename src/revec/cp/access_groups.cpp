#include "revec/cp/access_groups.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <sstream>
#include <utility>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

/// One membership: member `member` of timed family `family`.
struct Role {
    int family;
    int member;
};

/// The data indices of list m.
std::span<const int> list_of(const DataLists& l, int m) {
    const auto i = static_cast<std::size_t>(m);
    const auto first = static_cast<std::size_t>(l.begin[i]);
    const auto last = static_cast<std::size_t>(l.begin[i + 1]);
    return std::span<const int>(l.data).subspan(first, last - first);
}

/// The eqs. 7-9 rules over every family at once. Work units are the
/// distinct time variables (units 0 .. T-1, woken when fixed) and the data
/// (units T .. T+D-1, woken when the page is fixed or the line's bounds
/// move). A run drains the queue of advised units, its own prunings
/// included, so it ends at its local fixpoint.
class AccessGroupProp final : public Propagator {
public:
    explicit AccessGroupProp(AccessGroups g)
        : page_(std::move(g.page)),
          line_(std::move(g.line)),
          families_{std::move(g.issue), std::move(g.landing)},
          partners_(page_.size()),
          data_roles_(page_.size()) {
        REVEC_EXPECTS(line_.size() == page_.size());
        const auto datum = [this](int d) {
            REVEC_EXPECTS(d >= 0 && d < num_data());
            return static_cast<std::size_t>(d);
        };
        for (int m = 0; m < g.operands.size(); ++m) {
            const std::span<const int> l = list_of(g.operands, m);
            for (std::size_t a = 0; a < l.size(); ++a) {
                for (std::size_t b = a + 1; b < l.size(); ++b) {
                    if (l[a] == l[b]) continue;
                    partners_[datum(l[a])].push_back(l[b]);
                    partners_[datum(l[b])].push_back(l[a]);
                }
            }
        }
        // Distinct time variables in index order; a variable shared by two
        // members (or families) is one unit with two roles.
        std::vector<std::pair<std::int32_t, Role>> by_var;
        for (int f = 0; f < 2; ++f) {
            const TimedLists& fam = families_[static_cast<std::size_t>(f)];
            REVEC_EXPECTS(fam.time.size() == static_cast<std::size_t>(fam.lists.size()));
            REVEC_EXPECTS(fam.lanes.size() == fam.time.size());
            for (int m = 0; m < fam.lists.size(); ++m) {
                by_var.push_back({fam.time[static_cast<std::size_t>(m)].index(), Role{f, m}});
                for (const int d : list_of(fam.lists, m)) data_roles_[datum(d)].push_back({f, m});
            }
        }
        std::stable_sort(by_var.begin(), by_var.end(),
                         [](const auto& a, const auto& b) { return a.first < b.first; });
        for (const auto& [var, role] : by_var) {
            if (times_.empty() || times_.back().index() != var) {
                times_.emplace_back(var);
                time_roles_.emplace_back();
            }
            time_roles_.back().push_back(role);
        }

        // Nothing has been seen yet: the first run visits every unit.
        const int units = static_cast<int>(times_.size()) + num_data();
        queued_.assign(static_cast<std::size_t>(units), 1);
        for (int u = units - 1; u >= 0; --u) queue_.push_back(u);
    }

    /// Times and pages matter only once fixed; lines through their bounds.
    std::vector<Watch> watches() const {
        std::vector<Watch> ws;
        for (const IntVar t : times_) ws.push_back({t, kEventFixed});
        for (const IntVar p : page_) ws.push_back({p, kEventFixed});
        for (const IntVar l : line_) ws.push_back({l, kEventBounds | kEventFixed});
        return ws;
    }

    bool advised() const override { return true; }

    void advise(int watch, EventMask /*fired*/) override {
        const int t = static_cast<int>(times_.size());
        const int unit = watch < t ? watch : t + (watch - t) % num_data();
        char& q = queued_[static_cast<std::size_t>(unit)];
        if (q == 0) {
            q = 1;
            queue_.push_back(unit);
        }
    }

    bool propagate(Store& s) override {
        // A failed run leaves its queue behind; those units are revisited
        // later, which is redundant but harmless.
        const int t = static_cast<int>(times_.size());
        while (!queue_.empty()) {
            const int unit = queue_.back();
            queue_.pop_back();
            queued_[static_cast<std::size_t>(unit)] = 0;
            if (!(unit < t ? visit_time(s, unit) : visit_data(s, unit - t))) return false;
        }
        return true;
    }

    Priority priority() const override { return Priority::Linear; }
    bool idempotent() const override { return true; }

    const char* class_name() const override { return "AccessGroups"; }

    std::string describe() const override {
        std::ostringstream os;
        os << "access_groups(" << page_.size() << " data, " << families_[0].time.size()
           << " issue, " << families_[1].time.size() << " landing)";
        return os.str();
    }

private:
    int num_data() const { return static_cast<int>(page_.size()); }

    /// A time became fixed: revisit its members against every partner.
    bool visit_time(Store& s, int unit) {
        if (!s.fixed(times_[static_cast<std::size_t>(unit)])) return true;
        for (const Role r : time_roles_[static_cast<std::size_t>(unit)]) {
            if (!visit_member(s, r, -1)) return false;
        }
        return true;
    }

    /// A datum's page became fixed or its line moved: revisit its pairs.
    bool visit_data(Store& s, int d) {
        for (const int e : partners_[static_cast<std::size_t>(d)]) {
            if (!link(s, d, e)) return false;
        }
        for (const Role r : data_roles_[static_cast<std::size_t>(d)]) {
            if (!visit_member(s, r, d)) return false;
        }
        return true;
    }

    /// Member r against every other member of its family, over r's data
    /// (or only datum `only` when it is >= 0).
    bool visit_member(Store& s, Role r, int only) {
        const TimedLists& fam = families_[static_cast<std::size_t>(r.family)];
        const auto i = static_cast<std::size_t>(r.member);
        const int members = fam.lists.size();
        for (int m = 0; m < members; ++m) {
            const auto j = static_cast<std::size_t>(m);
            if (j == i || fam.lanes[i] + fam.lanes[j] > fam.lane_cap) continue;
            if (!visit_pair(s, fam, r.member, m, only)) return false;
        }
        return true;
    }

    bool visit_pair(Store& s, const TimedLists& fam, int i, int j, int only) {
        const IntVar ti = fam.time[static_cast<std::size_t>(i)];
        const IntVar tj = fam.time[static_cast<std::size_t>(j)];
        const bool fi = s.fixed(ti);
        const bool fj = s.fixed(tj);
        if (!fi && !fj) return true;
        const std::span<const int> di =
            only >= 0 ? std::span<const int>(&only, 1) : list_of(fam.lists, i);
        const std::span<const int> dj = list_of(fam.lists, j);
        if (fi && fj) {
            // Rules 1 and 2 hold between the two members' data.
            if (s.value(ti) != s.value(tj)) return true;
            for (const int d : di) {
                for (const int e : dj) {
                    if (d != e && !link(s, d, e)) return false;
                }
            }
            return true;
        }
        // Rule 3: a data pair on one page with disjoint lines keeps the
        // open time off the fixed one.
        for (const int d : di) {
            const IntVar pd = page_[static_cast<std::size_t>(d)];
            if (!s.fixed(pd)) continue;
            for (const int e : dj) {
                const IntVar pe = page_[static_cast<std::size_t>(e)];
                if (d != e && s.fixed(pe) && s.value(pe) == s.value(pd) &&
                    lines_disjoint(s, d, e)) {
                    return fi ? s.remove(tj, s.value(ti)) : s.remove(ti, s.value(tj));
                }
            }
        }
        return true;
    }

    bool lines_disjoint(const Store& s, int d, int e) const {
        const IntVar x = line_[static_cast<std::size_t>(d)];
        const IntVar y = line_[static_cast<std::size_t>(e)];
        return s.max(x) < s.min(y) || s.max(y) < s.min(x);
    }

    /// Rules 1 and 2 for a data pair that is accessed together.
    bool link(Store& s, int d, int e) {
        const IntVar pd = page_[static_cast<std::size_t>(d)];
        const IntVar pe = page_[static_cast<std::size_t>(e)];
        if (s.fixed(pd) && s.fixed(pe) && s.value(pd) == s.value(pe)) {
            const IntVar x = line_[static_cast<std::size_t>(d)];
            const IntVar y = line_[static_cast<std::size_t>(e)];
            while (s.min(x) != s.min(y) || s.max(x) != s.max(y)) {
                if (!s.set_min(x, s.min(y)) || !s.set_max(x, s.max(y)) ||
                    !s.set_min(y, s.min(x)) || !s.set_max(y, s.max(x))) {
                    return false;
                }
            }
            return true;
        }
        if (!lines_disjoint(s, d, e)) return true;
        if (s.fixed(pd)) return s.remove(pe, s.value(pd));
        if (s.fixed(pe)) return s.remove(pd, s.value(pe));
        return true;
    }

    std::vector<IntVar> page_;
    std::vector<IntVar> line_;
    std::array<TimedLists, 2> families_;         ///< issue (eq. 8), landing (eq. 9)
    std::vector<std::vector<int>> partners_;     ///< eq. 7 partners per datum
    std::vector<std::vector<Role>> data_roles_;  ///< memberships per datum
    std::vector<IntVar> times_;                  ///< distinct time variables
    std::vector<std::vector<Role>> time_roles_;  ///< memberships per time unit
    std::vector<int> queue_;                     ///< advised units not yet visited
    std::vector<char> queued_;                   ///< per unit: on queue_
};

}  // namespace

void post_access_groups(Store& store, AccessGroups groups) {
    auto p = std::make_unique<AccessGroupProp>(std::move(groups));
    const std::vector<Watch> ws = p->watches();
    store.post(std::move(p), ws);
}

}  // namespace revec::cp
