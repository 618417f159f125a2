// Property test of every idempotent() declaration. A propagator that
// declares idempotence has its self-wakeups suppressed, so a false
// declaration stops the store short of the fixpoint. From outside the
// class that shows as follows: post a constraint on a random store, run
// random push/propagate/pop steps, then post an identical copy and
// propagate again. The copy must change no domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "revec/cp/access_groups.hpp"
#include "revec/cp/arith.hpp"
#include "revec/cp/config_slots.hpp"
#include "revec/cp/diff2.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/reified.hpp"

namespace revec::cp {
namespace {

constexpr int kInts = 12;
constexpr int kBools = 6;

/// The random store's variables: kInts small holed integers, then kBools
/// booleans.
struct Pool {
    std::vector<IntVar> ints;
    std::vector<BoolVar> bools;
};

int pick(std::mt19937& rng, int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
}

Pool make_pool(Store& s, std::mt19937& rng) {
    Pool p;
    for (int i = 0; i < kInts; ++i) {
        const int lo = pick(rng, 0, 4);
        const int hi = lo + pick(rng, 0, 8);
        std::vector<int> values;
        for (int v = lo; v <= hi; ++v) {
            if (v == lo || pick(rng, 0, 3) != 0) values.push_back(v);
        }
        p.ints.push_back(s.new_var(Domain::of_values(std::move(values))));
    }
    for (int i = 0; i < kBools; ++i) p.bools.push_back(s.new_bool());
    return p;
}

/// Posts one constraint of a class. Its shape comes from `rng` alone, so
/// two calls with equally seeded generators post identical constraints.
using Poster = std::function<void(Store&, const Pool&, std::mt19937&)>;

/// k distinct integer variables of the pool.
std::vector<IntVar> distinct_ints(const Pool& p, std::mt19937& rng, int k) {
    std::vector<IntVar> xs = p.ints;
    std::shuffle(xs.begin(), xs.end(), rng);
    xs.resize(static_cast<std::size_t>(k));
    return xs;
}

IntVar any_int(const Pool& p, std::mt19937& rng) {
    return p.ints[static_cast<std::size_t>(pick(rng, 0, kInts - 1))];
}

struct IdempotentClass {
    const char* name;
    Poster post;
};

std::vector<IdempotentClass> idempotent_classes() {
    return {
        {"LinearEq",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             const int n = pick(rng, 2, 3);
             const std::int64_t coeffs[] = {1, -1, 2, -2, 3, -3};
             std::vector<LinTerm> terms;
             for (const IntVar x : distinct_ints(p, rng, n)) {
                 terms.push_back({coeffs[pick(rng, 0, 5)], x});
             }
             post_linear_eq(s, terms, pick(rng, -6, 12));
         }},
        {"MaxProp",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             std::vector<IntVar> xs = distinct_ints(p, rng, pick(rng, 2, 5));
             const IntVar z = xs.back();
             xs.pop_back();
             post_max(s, z, xs);
         }},
        {"UnaryFun",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             const std::vector<IntVar> xy = distinct_ints(p, rng, 2);
             const int k = pick(rng, 2, 4);
             if (pick(rng, 0, 1) == 0) {
                 post_unary_fun(s, xy[0], xy[1], [k](int v) { return v / k; }, "div");
             } else {
                 post_unary_fun(s, xy[0], xy[1], [k](int v) { return (v * v) % (k + 3); },
                                "square mod");
             }
         }},
        {"Diff2",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             // Drawn with replacement: rectangles share variables. Rows
             // from the booleans crowd the rectangles into two rows, so
             // one forced relation often forces the next.
             std::vector<Rect> rects;
             for (int r = pick(rng, 2, 6); r > 0; --r) {
                 const IntVar row = pick(rng, 0, 1) == 0
                                        ? p.bools[static_cast<std::size_t>(pick(rng, 0, kBools - 1))]
                                        : any_int(p, rng);
                 rects.push_back(Rect{any_int(p, rng), row, any_int(p, rng), pick(rng, 0, 2)});
             }
             post_diff2(s, rects);
         }},
        {"ConfigSlots",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             const int items = pick(rng, 2, 6);
             const int slots = pick(rng, 0, 3);
             const std::vector<IntVar> xs = distinct_ints(p, rng, items + slots);
             ConfigSlots cs;
             for (int i = 0; i < items; ++i) {
                 cs.add(xs[static_cast<std::size_t>(i)], pick(rng, 0, 2));
             }
             cs.slot.assign(xs.begin() + items, xs.end());
             post_config_slots(s, std::move(cs));
         }},
        {"AccessGroups",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             const int data = pick(rng, 2, 4);
             const int times = pick(rng, 0, 12 - 2 * data);
             const std::vector<IntVar> xs = distinct_ints(p, rng, 2 * data + times);
             AccessGroups g;
             for (int d = 0; d < data; ++d) {
                 g.page.push_back(xs[static_cast<std::size_t>(2 * d)]);
                 g.line.push_back(xs[static_cast<std::size_t>(2 * d + 1)]);
             }
             const auto list = [&] {
                 std::vector<int> l(static_cast<std::size_t>(pick(rng, 1, 3)));
                 for (int& d : l) d = pick(rng, 0, data - 1);
                 return l;
             };
             for (int k = pick(rng, 0, 2); k > 0; --k) g.operands.add(list());
             g.issue.lane_cap = 4;
             for (int t = 0; t < times; ++t) {
                 const IntVar time = xs[static_cast<std::size_t>(2 * data + t)];
                 if (pick(rng, 0, 1) == 0) {
                     g.issue.add(time, 1 << pick(rng, 0, 2), list());
                 } else {
                     g.landing.add(time, 0, list());
                 }
             }
             post_access_groups(s, std::move(g));
         }},
        {"NotEqual",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             const std::vector<IntVar> xy = distinct_ints(p, rng, 2);
             post_not_equal(s, xy[0], xy[1], pick(rng, -3, 3));
         }},
        {"ReifiedEqConst",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             const BoolVar b = p.bools[static_cast<std::size_t>(pick(rng, 0, kBools - 1))];
             post_reified_eq_const(s, b, any_int(p, rng), pick(rng, 0, 9));
         }},
        {"Clause",
         [](Store& s, const Pool& p, std::mt19937& rng) {
             std::vector<BoolVar> bs = p.bools;
             std::shuffle(bs.begin(), bs.end(), rng);
             std::vector<Literal> lits;
             for (int k = pick(rng, 1, 4); k > 0; --k) {
                 const BoolVar b = bs[static_cast<std::size_t>(k - 1)];
                 lits.push_back(pick(rng, 0, 1) == 0 ? pos(b) : neg(b));
             }
             post_clause(s, lits);
         }},
    };
}

std::vector<std::string> snapshot(const Store& s) {
    std::vector<std::string> doms;
    for (std::size_t i = 0; i < s.num_vars(); ++i) {
        doms.push_back(s.dom(IntVar(static_cast<std::int32_t>(i))).to_string());
    }
    return doms;
}

TEST(Idempotence, PostingTwicePrunesNothingMore) {
    for (const IdempotentClass& cls : idempotent_classes()) {
        int checked = 0;
        for (unsigned trial = 0; trial < 300; ++trial) {
            SCOPED_TRACE(std::string(cls.name) + " trial " + std::to_string(trial));
            std::mt19937 rng(trial);
            Store s;
            const Pool pool = make_pool(s, rng);
            const unsigned shape = static_cast<unsigned>(rng());
            std::mt19937 first(shape);
            cls.post(s, pool, first);
            if (!s.propagate()) continue;

            // A random dive: each step pushes a level and tightens one
            // variable, or pops back to an earlier fixpoint.
            for (int step = pick(rng, 0, 8); step > 0; --step) {
                if (s.level() > 0 && pick(rng, 0, 2) == 0) {
                    s.pop_level();
                    continue;
                }
                s.push_level();
                const IntVar x =
                    pick(rng, 0, 3) == 0
                        ? pool.bools[static_cast<std::size_t>(pick(rng, 0, kBools - 1))]
                        : any_int(pool, rng);
                const int v = pick(rng, s.min(x), s.max(x));
                const bool ok = pick(rng, 0, 1) == 0 ? s.remove(x, v) : s.assign(x, v);
                if (!ok || !s.propagate()) s.pop_level();
            }

            const std::vector<std::string> before = snapshot(s);
            std::mt19937 copy(shape);
            cls.post(s, pool, copy);
            ASSERT_TRUE(s.propagate());
            ASSERT_EQ(snapshot(s), before);
            ++checked;
        }
        EXPECT_GT(checked, 100) << cls.name;
    }
}

}  // namespace
}  // namespace revec::cp
