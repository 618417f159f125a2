#include "revec/cp/linear.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace revec::cp {
namespace {

TEST(LinearLeq, PrunesUpperBounds) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    const IntVar y = s.new_var(0, 10);
    post_linear_leq(s, {{1, x}, {1, y}}, 6);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.max(x), 6);
    EXPECT_EQ(s.max(y), 6);
    ASSERT_TRUE(s.set_min(y, 4));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.max(x), 2);
}

TEST(LinearLeq, FailsWhenMinExceedsBound) {
    Store s;
    const IntVar x = s.new_var(4, 10);
    const IntVar y = s.new_var(5, 10);
    post_linear_leq(s, {{1, x}, {1, y}}, 6);
    EXPECT_FALSE(s.propagate());
}

TEST(LinearLeq, NegativeCoefficients) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    const IntVar y = s.new_var(0, 10);
    // x - y <= -3  i.e.  x + 3 <= y
    post_linear_leq(s, {{1, x}, {-1, y}}, -3);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.max(x), 7);
    EXPECT_EQ(s.min(y), 3);
}

TEST(LinearLeq, CoefficientRounding) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    // 3x <= 10  =>  x <= 3
    post_linear_leq(s, {{3, x}}, 10);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.max(x), 3);
}

TEST(LinearLeq, NegativeCoefficientRounding) {
    Store s;
    const IntVar x = s.new_var(-10, 10);
    // -3x <= 10  =>  x >= -10/3  =>  x >= -3
    post_linear_leq(s, {{-3, x}}, 10);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(x), -3);
}

TEST(LinearEq, PropagatesBothDirections) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    const IntVar y = s.new_var(0, 10);
    post_linear_eq(s, {{1, x}, {1, y}}, 10);
    ASSERT_TRUE(s.propagate());
    ASSERT_TRUE(s.assign(x, 3));
    ASSERT_TRUE(s.propagate());
    EXPECT_TRUE(s.fixed(y));
    EXPECT_EQ(s.value(y), 7);
}

TEST(LinearEq, BoundsTighten) {
    Store s;
    const IntVar x = s.new_var(0, 4);
    const IntVar y = s.new_var(0, 4);
    post_linear_eq(s, {{1, x}, {1, y}}, 6);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(x), 2);
    EXPECT_EQ(s.min(y), 2);
}

TEST(LinearEq, InfeasibleFails) {
    Store s;
    const IntVar x = s.new_var(0, 2);
    const IntVar y = s.new_var(0, 2);
    post_linear_eq(s, {{1, x}, {1, y}}, 9);
    EXPECT_FALSE(s.propagate());
}

TEST(LeqOffset, PrecedenceForm) {
    Store s;
    const IntVar x = s.new_var(0, 100);
    const IntVar y = s.new_var(0, 100);
    post_leq_offset(s, x, 7, y);  // x + 7 <= y : a vector op's latency edge
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(y), 7);
    EXPECT_EQ(s.max(x), 93);
    ASSERT_TRUE(s.assign(x, 10));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(y), 17);
}

TEST(EqOffset, DataNodeStart) {
    Store s;
    const IntVar op = s.new_var(0, 50);
    const IntVar data = s.new_var(0, 100);
    post_eq_offset(s, op, 7, data);  // data = op + 7 (eq. 4 with latency 7)
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.max(data), 57);
    ASSERT_TRUE(s.assign(op, 12));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.value(data), 19);
}

TEST(NotEqual, RemovesOnFix) {
    Store s;
    const IntVar x = s.new_var(0, 5);
    const IntVar y = s.new_var(0, 5);
    post_not_equal(s, x, y);
    ASSERT_TRUE(s.propagate());
    ASSERT_TRUE(s.assign(x, 3));
    ASSERT_TRUE(s.propagate());
    EXPECT_FALSE(s.dom(y).contains(3));
    EXPECT_EQ(s.dom(y).size(), 5);
}

TEST(NotEqual, WithOffset) {
    Store s;
    const IntVar x = s.new_var(0, 5);
    const IntVar y = s.new_var(0, 5);
    post_not_equal(s, x, y, 2);  // x != y + 2
    ASSERT_TRUE(s.assign(y, 1));
    ASSERT_TRUE(s.propagate());
    EXPECT_FALSE(s.dom(x).contains(3));
}

TEST(NotEqual, FailsWhenForcedEqual) {
    Store s;
    const IntVar x = s.new_var(4, 4);
    const IntVar y = s.new_var(4, 4);
    post_not_equal(s, x, y);
    EXPECT_FALSE(s.propagate());
}

// Property: exhaustive check that LinearEq propagation never removes a
// supported value and that all solutions satisfy the equation.
TEST(LinearProperty, EqKeepsExactlySupportedBounds) {
    for (int c = 0; c <= 12; ++c) {
        Store s;
        const IntVar x = s.new_var(0, 6);
        const IntVar y = s.new_var(0, 6);
        const IntVar z = s.new_var(0, 6);
        post_linear_eq(s, {{1, x}, {2, y}, {-1, z}}, c);
        const bool ok = s.propagate();
        // reference: which bounds are actually supported
        int cnt = 0;
        int min_x = 99, max_x = -99;
        for (int xv = 0; xv <= 6; ++xv) {
            for (int yv = 0; yv <= 6; ++yv) {
                for (int zv = 0; zv <= 6; ++zv) {
                    if (xv + 2 * yv - zv == c) {
                        ++cnt;
                        min_x = std::min(min_x, xv);
                        max_x = std::max(max_x, xv);
                    }
                }
            }
        }
        if (cnt == 0) {
            EXPECT_FALSE(ok) << "c=" << c;
            continue;
        }
        ASSERT_TRUE(ok) << "c=" << c;
        // Bounds consistency: propagated bounds are no tighter than the true
        // support and no looser than the initial domain.
        EXPECT_LE(s.min(x), min_x) << "c=" << c;
        EXPECT_GE(s.max(x), max_x) << "c=" << c;
    }
}

// Differential test of the fixed-arity linear forms (2 or 3 distinct
// variables; the equation loops to its own fixpoint and declares
// idempotence) against the same constraint posted as n-ary LinearLeq
// halves: two zero-coefficient pad terms keep the oracle on the n-ary
// path. Under random push/pop dives over hole-carrying domains both
// stores must agree on every domain, or both fail.
struct LinearCase {
    bool eq = false;
    std::vector<std::int64_t> coeffs;  ///< 2 or 3 terms
    std::int64_t c = 0;
    std::vector<Domain> doms;  ///< per term
};

LinearCase random_linear_case(std::mt19937& rng) {
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    LinearCase lc;
    lc.eq = pick(0, 2) != 0;
    const int ii = pick(2, 5);
    const std::int64_t choices[] = {1, -1, ii, -ii, 0};
    const int arity = pick(2, 3);
    for (int k = 0; k < arity; ++k) {
        lc.coeffs.push_back(choices[pick(0, 4)]);
        const int lo = pick(-8, 4);
        const int hi = lo + pick(0, 24);
        std::vector<int> values;
        for (int v = lo; v <= hi; ++v) {
            if (pick(0, 9) >= 3 || v == lo) values.push_back(v);  // ~30% holes
        }
        lc.doms.push_back(Domain::of_values(std::move(values)));
    }
    lc.c = pick(-20, 40);
    return lc;
}

/// The case's variables, then the two pad variables, in the same order in
/// every store, so both stores hand out the same IntVars.
std::vector<IntVar> linear_case_vars(Store& s, const LinearCase& lc) {
    std::vector<IntVar> xs;
    for (const Domain& d : lc.doms) xs.push_back(s.new_var(d));
    xs.push_back(s.new_var(0, 3));
    xs.push_back(s.new_var(0, 3));
    return xs;
}

void post_fixed_arity(Store& s, const LinearCase& lc, const std::vector<IntVar>& xs) {
    std::vector<LinTerm> terms;
    for (std::size_t k = 0; k < lc.coeffs.size(); ++k) terms.push_back({lc.coeffs[k], xs[k]});
    if (lc.eq) {
        post_linear_eq(s, terms, lc.c);
    } else {
        post_linear_leq(s, terms, lc.c);
    }
}

void post_nary_halves(Store& s, const LinearCase& lc, const std::vector<IntVar>& xs) {
    const std::size_t n = lc.coeffs.size();
    const auto half = [&](std::int64_t sign) {
        std::vector<LinTerm> terms;
        for (std::size_t k = 0; k < n; ++k) terms.push_back({sign * lc.coeffs[k], xs[k]});
        terms.push_back({0, xs[n]});
        terms.push_back({0, xs[n + 1]});
        post_linear_leq(s, terms, sign * lc.c);
    };
    half(1);
    if (lc.eq) half(-1);
}

TEST(LinearFixedArity, MatchesNaryDecomposition) {
    std::mt19937 rng(20151);
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    for (int trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const LinearCase lc = random_linear_case(rng);
        Store fixed;
        Store nary;
        const std::vector<IntVar> xs = linear_case_vars(fixed, lc);
        linear_case_vars(nary, lc);
        post_fixed_arity(fixed, lc, xs);
        post_nary_halves(nary, lc, xs);
        const std::size_t n = lc.coeffs.size();
        const auto agree = [&](bool ok_fixed, bool ok_nary) {
            ASSERT_EQ(ok_fixed, ok_nary);
            if (!ok_fixed) return;
            for (std::size_t k = 0; k < n; ++k) {
                ASSERT_EQ(fixed.dom(xs[k]).to_string(), nary.dom(xs[k]).to_string()) << "var " << k;
            }
        };
        const bool root = fixed.propagate();
        agree(root, nary.propagate());
        if (!root || HasFatalFailure()) continue;

        for (int step = 0; step < 40 && !HasFatalFailure(); ++step) {
            if (fixed.level() > 0 && pick(0, 3) == 0) {
                fixed.pop_level();
                nary.pop_level();
                agree(true, true);
                continue;
            }
            fixed.push_level();
            nary.push_level();
            const IntVar x = xs[static_cast<std::size_t>(pick(0, static_cast<int>(n) - 1))];
            const int v = pick(fixed.dom(x).min() - 1, fixed.dom(x).max() + 1);
            const int op = pick(0, 3);
            const auto mutate = [&](Store& s) {
                switch (op) {
                    case 0: return s.set_min(x, v);
                    case 1: return s.set_max(x, v);
                    case 2: return s.remove(x, v);
                    default: return s.assign(x, v);
                }
            };
            const bool ok_fixed = mutate(fixed) && fixed.propagate();
            const bool ok_nary = mutate(nary) && nary.propagate();
            agree(ok_fixed, ok_nary);
            if (!ok_fixed) {
                fixed.pop_level();
                nary.pop_level();
            }
        }
    }
}

}  // namespace
}  // namespace revec::cp
