// Randomized differential testing of the CP kernel: generate small random
// CSPs over every propagator family, enumerate the ground truth by brute
// force, and check that branch-and-bound (a) finds exactly the true optimum
// when one exists, (b) reports UNSAT exactly when no assignment satisfies
// the constraints, and (c) never emits an invalid "solution".
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <random>

#include "revec/cp/arith.hpp"
#include "revec/cp/count.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/diff2.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/reified.hpp"
#include "revec/cp/search.hpp"

namespace revec::cp {
namespace {

/// A generated instance: the posted model plus an oracle evaluating a full
/// assignment. Variables all share the domain [0, max_val].
struct Instance {
    int num_vars;
    int max_val;
    std::function<void(Store&, const std::vector<IntVar>&)> post;
    std::function<bool(const std::vector<int>&)> feasible;
    std::function<int(const std::vector<int>&)> objective;  // minimize
};

Instance make_instance(unsigned seed) {
    std::mt19937 rng(seed);
    const int n = 3 + static_cast<int>(rng() % 3);      // 3..5 vars
    const int max_val = 3 + static_cast<int>(rng() % 3);  // domains 0..3..5

    // Collect constraint closures for both the model and the oracle.
    std::vector<std::function<void(Store&, const std::vector<IntVar>&)>> posts;
    std::vector<std::function<bool(const std::vector<int>&)>> checks;

    const auto var_pair = [&rng, n] {
        const int a = static_cast<int>(rng() % n);
        int b = static_cast<int>(rng() % n);
        if (b == a) b = (b + 1) % n;
        return std::pair<int, int>(a, b);
    };

    const int num_constraints = 2 + static_cast<int>(rng() % 4);
    for (int c = 0; c < num_constraints; ++c) {
        switch (rng() % 8) {
            case 0: {  // linear <=
                const auto [a, b] = var_pair();
                const int k1 = 1 + static_cast<int>(rng() % 3);
                const int k2 = 1 + static_cast<int>(rng() % 3);
                const int bound = static_cast<int>(rng() % (2 * (max_val + 1)));
                posts.push_back([=](Store& s, const std::vector<IntVar>& xs) {
                    post_linear_leq(s, {{k1, xs[static_cast<std::size_t>(a)]},
                                        {k2, xs[static_cast<std::size_t>(b)]}},
                                    bound);
                });
                checks.push_back([=](const std::vector<int>& v) {
                    return k1 * v[static_cast<std::size_t>(a)] +
                               k2 * v[static_cast<std::size_t>(b)] <=
                           bound;
                });
                break;
            }
            case 1: {  // disequality
                const auto [a, b] = var_pair();
                posts.push_back([=](Store& s, const std::vector<IntVar>& xs) {
                    post_not_equal(s, xs[static_cast<std::size_t>(a)],
                                   xs[static_cast<std::size_t>(b)]);
                });
                checks.push_back([=](const std::vector<int>& v) {
                    return v[static_cast<std::size_t>(a)] != v[static_cast<std::size_t>(b)];
                });
                break;
            }
            case 2: {  // cumulative with unit demands
                const int cap = 1 + static_cast<int>(rng() % 2);
                const int dur = 1 + static_cast<int>(rng() % 2);
                posts.push_back([=](Store& s, const std::vector<IntVar>& xs) {
                    std::vector<CumulTask> tasks;
                    for (const IntVar x : xs) tasks.push_back({x, dur, 1});
                    post_cumulative(s, tasks, cap);
                });
                checks.push_back([=](const std::vector<int>& v) {
                    for (int t = 0; t <= max_val + dur; ++t) {
                        int use = 0;
                        for (const int start : v) {
                            if (start <= t && t < start + dur) ++use;
                        }
                        if (use > cap) return false;
                    }
                    return true;
                });
                break;
            }
            case 3: {  // reified equality chained into an implication
                const auto [a, b] = var_pair();
                const auto [c2, d2] = var_pair();
                posts.push_back([=](Store& s, const std::vector<IntVar>& xs) {
                    const BoolVar p = s.new_bool();
                    const BoolVar q = s.new_bool();
                    post_reified_eq(s, p, xs[static_cast<std::size_t>(a)],
                                    xs[static_cast<std::size_t>(b)]);
                    post_reified_eq(s, q, xs[static_cast<std::size_t>(c2)],
                                    xs[static_cast<std::size_t>(d2)]);
                    post_implies(s, p, q);
                });
                checks.push_back([=](const std::vector<int>& v) {
                    const bool p = v[static_cast<std::size_t>(a)] ==
                                   v[static_cast<std::size_t>(b)];
                    const bool q = v[static_cast<std::size_t>(c2)] ==
                                   v[static_cast<std::size_t>(d2)];
                    return !p || q;
                });
                break;
            }
            case 5: {  // z = max of one to three other variables
                const int z = static_cast<int>(rng() % n);
                std::vector<int> args;
                for (int i = 0; i < n; ++i) {
                    if (i != z && rng() % 2 == 0 && args.size() < 3) args.push_back(i);
                }
                if (args.empty()) args.push_back((z + 1) % n);
                posts.push_back([=](Store& s, const std::vector<IntVar>& xs) {
                    std::vector<IntVar> operands;
                    for (const int i : args) operands.push_back(xs[static_cast<std::size_t>(i)]);
                    post_max(s, xs[static_cast<std::size_t>(z)], operands);
                });
                checks.push_back([=](const std::vector<int>& v) {
                    int m = v[static_cast<std::size_t>(args.front())];
                    for (const int i : args) m = std::max(m, v[static_cast<std::size_t>(i)]);
                    return v[static_cast<std::size_t>(z)] == m;
                });
                break;
            }
            case 6: {  // non-overlapping rectangles (eq. 11 shape)
                // Each rectangle takes its origins from two distinct
                // variables and its x-length from a third variable or a
                // constant in 0..2; y-lengths are constants in 0..2.
                struct Box {
                    int x, y, len_var, len_const, len_y;
                };
                std::vector<Box> boxes(2 + rng() % 2);
                for (Box& b : boxes) {
                    const auto [x, y] = var_pair();
                    b.x = x;
                    b.y = y;
                    b.len_var = rng() % 2 == 0 ? static_cast<int>(rng() % n) : -1;
                    b.len_const = static_cast<int>(rng() % 3);
                    b.len_y = static_cast<int>(rng() % 3);
                }
                posts.push_back([=](Store& s, const std::vector<IntVar>& xs) {
                    std::vector<Rect> rects;
                    for (const Box& b : boxes) {
                        const IntVar len = b.len_var >= 0
                                               ? xs[static_cast<std::size_t>(b.len_var)]
                                               : s.new_var(b.len_const, b.len_const);
                        rects.push_back({xs[static_cast<std::size_t>(b.x)],
                                         xs[static_cast<std::size_t>(b.y)], len, b.len_y});
                    }
                    post_diff2(s, rects);
                });
                checks.push_back([=](const std::vector<int>& v) {
                    const auto at = [&v](int i) { return v[static_cast<std::size_t>(i)]; };
                    const auto len_x = [&](const Box& b) {
                        return b.len_var >= 0 ? at(b.len_var) : b.len_const;
                    };
                    for (std::size_t i = 0; i < boxes.size(); ++i) {
                        for (std::size_t j = i + 1; j < boxes.size(); ++j) {
                            const Box& a = boxes[i];
                            const Box& b = boxes[j];
                            const int la = len_x(a);
                            const int lb = len_x(b);
                            if (la == 0 || lb == 0 || a.len_y == 0 || b.len_y == 0) continue;
                            const bool overlap_x = at(a.x) < at(b.x) + lb && at(b.x) < at(a.x) + la;
                            const bool overlap_y =
                                at(a.y) < at(b.y) + b.len_y && at(b.y) < at(a.y) + a.len_y;
                            if (overlap_x && overlap_y) return false;
                        }
                    }
                    return true;
                });
                break;
            }
            case 7: {  // count of reified x_i == k booleans
                const int total = static_cast<int>(rng() % n);
                const int k = static_cast<int>(rng() % (max_val + 1));
                std::vector<int> counted;
                for (int i = 0; i < n; ++i) {
                    if (i != total && rng() % 3 != 0) counted.push_back(i);
                }
                posts.push_back([=](Store& s, const std::vector<IntVar>& xs) {
                    std::vector<BoolVar> bools;
                    for (const int i : counted) {
                        const BoolVar b = s.new_bool();
                        post_reified_eq_const(s, b, xs[static_cast<std::size_t>(i)], k);
                        bools.push_back(b);
                    }
                    post_bool_sum(s, bools, xs[static_cast<std::size_t>(total)]);
                });
                checks.push_back([=](const std::vector<int>& v) {
                    int hits = 0;
                    for (const int i : counted) hits += v[static_cast<std::size_t>(i)] == k ? 1 : 0;
                    return v[static_cast<std::size_t>(total)] == hits;
                });
                break;
            }
            default: {  // y = f(x) over a random table
                const auto [a, b] = var_pair();
                std::vector<int> table;
                for (int i = 0; i <= max_val; ++i) {
                    table.push_back(static_cast<int>(rng() % (max_val + 1)));
                }
                const auto f = [table](int v) { return table[static_cast<std::size_t>(v)]; };
                posts.push_back([=](Store& s, const std::vector<IntVar>& xs) {
                    post_unary_fun(s, xs[static_cast<std::size_t>(a)],
                                   xs[static_cast<std::size_t>(b)], f);
                });
                checks.push_back([=](const std::vector<int>& v) {
                    return v[static_cast<std::size_t>(b)] == f(v[static_cast<std::size_t>(a)]);
                });
                break;
            }
        }
    }

    // Objective: weighted sum with signed weights.
    std::vector<int> weights;
    for (int i = 0; i < n; ++i) {
        weights.push_back(static_cast<int>(rng() % 5) - 2);  // -2..2
    }

    Instance inst;
    inst.num_vars = n;
    inst.max_val = max_val;
    inst.post = [posts](Store& s, const std::vector<IntVar>& xs) {
        for (const auto& p : posts) p(s, xs);
    };
    inst.feasible = [checks](const std::vector<int>& v) {
        for (const auto& c : checks) {
            if (!c(v)) return false;
        }
        return true;
    };
    inst.objective = [weights](const std::vector<int>& v) {
        int total = 0;
        for (std::size_t i = 0; i < v.size(); ++i) {
            total += weights[i] * v[i];
        }
        return total;
    };
    return inst;
}

/// Brute-force optimum, or nullopt when infeasible.
std::optional<int> brute_force(const Instance& inst) {
    std::vector<int> v(static_cast<std::size_t>(inst.num_vars), 0);
    std::optional<int> best;
    while (true) {
        if (inst.feasible(v)) {
            const int obj = inst.objective(v);
            if (!best.has_value() || obj < *best) best = obj;
        }
        int i = 0;
        while (i < inst.num_vars && ++v[static_cast<std::size_t>(i)] > inst.max_val) {
            v[static_cast<std::size_t>(i)] = 0;
            ++i;
        }
        if (i == inst.num_vars) break;
    }
    return best;
}

class SolverFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SolverFuzz, OptimumMatchesBruteForce) {
    const Instance inst = make_instance(GetParam());

    Store s;
    std::vector<IntVar> xs;
    for (int i = 0; i < inst.num_vars; ++i) {
        xs.push_back(s.new_var(0, inst.max_val));
    }
    inst.post(s, xs);

    // Objective variable: weighted sum == obj (re-derive the weights from
    // the oracle by probing unit vectors — the oracle is linear).
    std::vector<int> zero(static_cast<std::size_t>(inst.num_vars), 0);
    const int base = inst.objective(zero);
    std::vector<LinTerm> terms;
    for (int i = 0; i < inst.num_vars; ++i) {
        std::vector<int> probe = zero;
        probe[static_cast<std::size_t>(i)] = 1;
        terms.push_back({inst.objective(probe) - base, xs[static_cast<std::size_t>(i)]});
    }
    const int weight_span = 2 * inst.num_vars * inst.max_val + 1;
    const IntVar obj = s.new_var(-weight_span, weight_span);
    terms.push_back({-1, obj});
    post_linear_eq(s, terms, -base);

    const SolveResult result =
        solve(s, {Phase{xs, VarSelect::MinDomain, ValSelect::Min, ""}}, obj);

    const std::optional<int> truth = brute_force(inst);
    if (!truth.has_value()) {
        EXPECT_EQ(result.status, SolveStatus::Unsat) << "seed " << GetParam();
        return;
    }
    ASSERT_EQ(result.status, SolveStatus::Optimal) << "seed " << GetParam();
    // The reported solution must be genuinely feasible and optimal.
    std::vector<int> assignment;
    for (const IntVar x : xs) assignment.push_back(result.value_of(x));
    EXPECT_TRUE(inst.feasible(assignment)) << "seed " << GetParam();
    EXPECT_EQ(inst.objective(assignment), *truth) << "seed " << GetParam();
    EXPECT_EQ(result.value_of(obj), *truth) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomCsps, SolverFuzz, ::testing::Range(0u, 120u));

}  // namespace
}  // namespace revec::cp
