// Differential test of the eqs. 7-9 access-group propagator against the
// decomposition it replaces: one reified-equality boolean per time, page
// and line pair and one clause per data pair. On random small stores under
// random partial assignments, with choice levels pushed and popped in
// between, both stores must reach the same fixpoint: identical domains on
// every shared int variable, or both fail.
#include "revec/cp/access_groups.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "revec/cp/reified.hpp"

namespace revec::cp {
namespace {

/// A random instance, posted identically into two stores. The shared
/// variables come first in both, so they have the same handles.
struct Instance {
    int num_data = 0;
    std::vector<int> page_lo, page_hi, line_lo, line_hi;
    std::vector<int> time_hi;  ///< time variables: [0, time_hi]
    std::vector<std::vector<int>> operands;
    struct Member {
        int time;  ///< index into time_hi
        int lanes;
        std::vector<int> data;
    };
    std::vector<Member> issue, landing;
    int lane_cap = 4;
};

Instance random_instance(std::mt19937& rng) {
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    Instance in;
    in.num_data = pick(2, 6);
    for (int d = 0; d < in.num_data; ++d) {
        in.page_lo.push_back(pick(0, 1));
        in.page_hi.push_back(in.page_lo.back() + pick(0, 2));
        in.line_lo.push_back(pick(0, 2));
        in.line_hi.push_back(in.line_lo.back() + pick(0, 3));
    }
    const auto data_list = [&] {
        std::vector<int> l(static_cast<std::size_t>(pick(1, 3)));
        for (int& d : l) d = pick(0, in.num_data - 1);  // repeats allowed
        return l;
    };
    for (int k = pick(0, 2); k > 0; --k) in.operands.push_back(data_list());
    const auto new_time = [&] {
        in.time_hi.push_back(pick(1, 3));
        return static_cast<int>(in.time_hi.size()) - 1;
    };
    for (int k = pick(0, 4); k > 0; --k) {
        const int lanes[] = {1, 2, 4};
        in.issue.push_back({new_time(), lanes[pick(0, 2)], data_list()});
    }
    for (int k = pick(0, 4); k > 0; --k) {
        // A landing member may share its time variable with an issue
        // member (a writer whose completion is its start).
        const bool share = !in.issue.empty() && pick(0, 3) == 0;
        const int last = static_cast<int>(in.issue.size()) - 1;
        const int t = share ? in.issue[static_cast<std::size_t>(pick(0, last))].time : new_time();
        bool taken = false;
        for (const Instance::Member& m : in.landing) taken = taken || m.time == t;
        in.landing.push_back({taken ? new_time() : t, 0, data_list()});
    }
    return in;
}

/// Create the shared variables (pages and lines into g, then times) and
/// return all of them.
std::vector<IntVar> post_vars(Store& s, const Instance& in, AccessGroups& g,
                              std::vector<IntVar>& times) {
    std::vector<IntVar> vars;
    for (int d = 0; d < in.num_data; ++d) {
        const auto i = static_cast<std::size_t>(d);
        g.page.push_back(s.new_var(in.page_lo[i], in.page_hi[i]));
        g.line.push_back(s.new_var(in.line_lo[i], in.line_hi[i]));
        vars.push_back(g.page.back());
        vars.push_back(g.line.back());
    }
    for (const int hi : in.time_hi) {
        times.push_back(s.new_var(0, hi));
        vars.push_back(times.back());
    }
    return vars;
}

std::vector<IntVar> post_global(Store& s, const Instance& in) {
    AccessGroups g;
    std::vector<IntVar> times;
    std::vector<IntVar> vars = post_vars(s, in, g, times);
    for (const std::vector<int>& l : in.operands) g.together.add(l);
    g.issue.lane_cap = in.lane_cap;
    for (const Instance::Member& m : in.issue) {
        g.issue.add(times[static_cast<std::size_t>(m.time)], m.lanes, m.data);
    }
    for (const Instance::Member& m : in.landing) {
        g.landing.add(times[static_cast<std::size_t>(m.time)], 0, m.data);
    }
    post_access_groups(s, std::move(g));
    return vars;
}

void post_decomposition(Store& s, const Instance& in) {
    AccessGroups g;  // only its page and line vectors are used
    std::vector<IntVar> times;
    post_vars(s, in, g, times);
    const auto eq = [&s](IntVar x, IntVar y) {
        const BoolVar b = s.new_bool();
        post_reified_eq(s, b, x, y);
        return b;
    };
    const auto page_eq = [&](int d, int e) {
        return eq(g.page[static_cast<std::size_t>(d)], g.page[static_cast<std::size_t>(e)]);
    };
    const auto line_eq = [&](int d, int e) {
        return eq(g.line[static_cast<std::size_t>(d)], g.line[static_cast<std::size_t>(e)]);
    };
    for (const std::vector<int>& l : in.operands) {
        for (std::size_t a = 0; a < l.size(); ++a) {
            for (std::size_t b = a + 1; b < l.size(); ++b) {
                post_implies(s, page_eq(l[a], l[b]), line_eq(l[a], l[b]));
            }
        }
    }
    const auto timed = [&](const std::vector<Instance::Member>& ms, int cap) {
        for (std::size_t i = 0; i < ms.size(); ++i) {
            for (std::size_t j = i + 1; j < ms.size(); ++j) {
                if (ms[i].lanes + ms[j].lanes > cap) continue;
                const BoolVar bs = eq(times[static_cast<std::size_t>(ms[i].time)],
                                      times[static_cast<std::size_t>(ms[j].time)]);
                for (const int d : ms[i].data) {
                    for (const int e : ms[j].data) {
                        if (d == e) continue;
                        post_clause(s, {neg(bs), neg(page_eq(d, e)), pos(line_eq(d, e))});
                    }
                }
            }
        }
    };
    timed(in.issue, in.lane_cap);
    timed(in.landing, 0);
}

/// Both failed, or every shared variable has the same domain.
void expect_same(const Store& a, const Store& b, bool ok_a, bool ok_b,
                 const std::vector<IntVar>& vars, const std::string& where) {
    ASSERT_EQ(ok_a, ok_b) << where;
    if (!ok_a) return;
    for (const IntVar x : vars) {
        ASSERT_TRUE(a.dom(x) == b.dom(x))
            << where << ": x" << x.index() << " global " << a.dom(x).to_string()
            << " vs decomposition " << b.dom(x).to_string();
    }
}

std::int64_t total_size(const Store& s, const std::vector<IntVar>& vars) {
    std::int64_t n = 0;
    for (const IntVar x : vars) n += s.size(x);
    return n;
}

TEST(AccessGroups, MatchesDecompositionOnRandomStores) {
    std::mt19937 rng(20151);
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    int failures = 0;
    int prunings = 0;
    for (int instance = 0; instance < 400; ++instance) {
        const Instance in = random_instance(rng);
        Store a;
        Store b;
        const std::vector<IntVar> vars = post_global(a, in);
        post_decomposition(b, in);
        const std::string tag = "instance " + std::to_string(instance);
        bool ok_a = a.propagate();
        bool ok_b = b.propagate();
        ASSERT_NO_FATAL_FAILURE(expect_same(a, b, ok_a, ok_b, vars, tag + " root"));
        if (!ok_a) continue;

        // A random dive: each step opens a level and prunes one variable;
        // after a failure (or now and then) it backtracks a few levels, so
        // the propagator also runs on states restored by the trail.
        for (int step = 0; step < 12; ++step) {
            const int pos = pick(0, static_cast<int>(vars.size()) - 1);
            const IntVar x = vars[static_cast<std::size_t>(pos)];
            a.push_level();
            b.push_level();
            const int lo = a.min(x);
            const int hi = a.max(x);
            const int v = pick(lo, hi);
            bool apply_a = true;
            bool apply_b = true;
            switch (pick(0, 3)) {
                case 0: apply_a = a.assign(x, v), apply_b = b.assign(x, v); break;
                case 1: apply_a = a.remove(x, v), apply_b = b.remove(x, v); break;
                case 2: apply_a = a.set_min(x, v), apply_b = b.set_min(x, v); break;
                default: apply_a = a.set_max(x, v), apply_b = b.set_max(x, v); break;
            }
            ASSERT_EQ(apply_a, apply_b);
            const std::int64_t before = total_size(a, vars);
            ok_a = apply_a && a.propagate();
            ok_b = apply_b && b.propagate();
            const std::string where = tag + " step " + std::to_string(step);
            ASSERT_NO_FATAL_FAILURE(expect_same(a, b, ok_a, ok_b, vars, where));
            if (ok_a && total_size(a, vars) < before) ++prunings;
            if (!ok_a || pick(0, 3) == 0) {
                if (!ok_a) ++failures;
                const int back = std::min(a.level(), pick(1, 3));
                for (int k = 0; k < back; ++k) {
                    a.pop_level();
                    b.pop_level();
                }
                ASSERT_NO_FATAL_FAILURE(
                    expect_same(a, b, true, true, vars, where + " after backtrack"));
            }
        }
    }
    // The corpus exercises both outcomes.
    EXPECT_GT(failures, 20);
    EXPECT_GT(prunings, 100);
}

}  // namespace
}  // namespace revec::cp
