// Differential test of the eq. 3 propagator (one configuration per slot)
// against the decomposition it replaces: one disequality per item pair of
// different configurations and, when slot configuration variables are
// given, two reified-constant booleans and one clause per (item, slot)
// pair. On random small stores under random partial assignments, with
// choice levels pushed and popped in between, both stores must reach the
// same fixpoint: identical domains on every shared variable, or both fail.
#include "revec/cp/config_slots.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "revec/cp/linear.hpp"
#include "revec/cp/reified.hpp"

namespace revec::cp {
namespace {

/// A random instance, posted identically into two stores. The shared
/// variables come first in both, so they have the same handles.
struct Instance {
    std::vector<int> item_lo, item_hi, config;
    std::vector<int> slot_lo, slot_hi;  ///< empty: no slot variables
};

Instance random_instance(std::mt19937& rng) {
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    Instance in;
    const int configs = pick(1, 3);
    const int slots = pick(1, 4);
    for (int k = pick(1, 6); k > 0; --k) {
        // Values may reach past the last slot: those have no channel.
        in.item_lo.push_back(pick(0, slots - 1));
        in.item_hi.push_back(in.item_lo.back() + pick(0, 2));
        in.config.push_back(pick(0, configs - 1));
    }
    if (pick(0, 1) == 0) {
        for (int t = 0; t < slots; ++t) {
            // A slot may also allow a configuration no item has.
            in.slot_lo.push_back(pick(0, 1));
            in.slot_hi.push_back(std::max(in.slot_lo.back(), pick(0, configs)));
        }
    }
    return in;
}

/// Create the shared variables (items, then slots) and return all of them.
std::vector<IntVar> post_vars(Store& s, const Instance& in, ConfigSlots& c) {
    std::vector<IntVar> vars;
    for (std::size_t i = 0; i < in.config.size(); ++i) {
        c.add(s.new_var(in.item_lo[i], in.item_hi[i]), in.config[i]);
        vars.push_back(c.time.back());
    }
    for (std::size_t t = 0; t < in.slot_lo.size(); ++t) {
        c.slot.push_back(s.new_var(in.slot_lo[t], in.slot_hi[t]));
        vars.push_back(c.slot.back());
    }
    return vars;
}

std::vector<IntVar> post_global(Store& s, const Instance& in) {
    ConfigSlots c;
    std::vector<IntVar> vars = post_vars(s, in, c);
    post_config_slots(s, std::move(c));
    return vars;
}

void post_decomposition(Store& s, const Instance& in) {
    ConfigSlots c;  // only its variable handles are used
    post_vars(s, in, c);
    for (std::size_t a = 0; a < c.time.size(); ++a) {
        for (std::size_t b = a + 1; b < c.time.size(); ++b) {
            if (c.config[a] != c.config[b]) post_not_equal(s, c.time[a], c.time[b]);
        }
    }
    for (std::size_t i = 0; i < c.time.size(); ++i) {
        for (std::size_t t = 0; t < c.slot.size(); ++t) {
            const BoolVar here = s.new_bool();
            post_reified_eq_const(s, here, c.time[i], static_cast<int>(t));
            const BoolVar is_cfg = s.new_bool();
            post_reified_eq_const(s, is_cfg, c.slot[t], c.config[i]);
            post_implies(s, here, is_cfg);
        }
    }
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

TEST(ConfigSlots, MatchesDecompositionOnRandomStores) {
    std::mt19937 rng(20151);
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    int failures = 0;
    int prunings = 0;
    for (int instance = 0; instance < 600; ++instance) {
        const Instance in = random_instance(rng);
        Store a;
        Store b;
        const std::vector<IntVar> vars = post_global(a, in);
        post_decomposition(b, in);
        const std::string tag = "instance " + std::to_string(instance) +
                                (in.slot_lo.empty() ? " (no slots)" : " (slots)");
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
            const int v = pick(a.min(x), a.max(x));
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
