// The random CSP corpus of the engine golden suite (test_engine_differential)
// and the clone suite (test_clone): small models over the general-purpose
// propagators (linear, disequality, unary function, cumulative, diff2,
// reification, counting, max), with hole-rich domains. Deterministic in
// the seed.
#pragma once

#include <cstdlib>
#include <functional>
#include <random>
#include <vector>

#include "revec/cp/arith.hpp"
#include "revec/cp/count.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/diff2.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/reified.hpp"
#include "revec/cp/store.hpp"

namespace revec::cp::testing {

/// Post the same model into any store. Returns the decision variables and
/// the objective.
struct Model {
    std::vector<IntVar> xs;
    IntVar objective;
};

using Builder = std::function<Model(Store&)>;

/// A random CSP over every propagator family. Deterministic in the seed.
inline Builder make_builder(unsigned seed) {
    return [seed](Store& s) -> Model {
        std::mt19937 rng(seed);
        const auto pick = [&](int lo, int hi) {
            return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
        };
        const int n = pick(4, 6);
        const int max_val = pick(4, 6);

        Model m;
        for (int i = 0; i < n; ++i) {
            if (rng() % 3 == 0) {
                // Hole-rich domain: a random value subset.
                std::vector<int> values;
                const int k = pick(2, max_val + 1);
                for (int j = 0; j < k; ++j) values.push_back(pick(0, max_val));
                values.push_back(pick(0, max_val));  // ensure non-empty spread
                m.xs.push_back(s.new_var(Domain::of_values(values)));
            } else {
                m.xs.push_back(s.new_var(0, max_val));
            }
        }
        const auto var = [&] { return m.xs[static_cast<std::size_t>(pick(0, n - 1))]; };

        const int num_constraints = pick(3, 6);
        for (int c = 0; c < num_constraints; ++c) {
            switch (rng() % 8) {
                case 0:
                    post_linear_leq(s, {{pick(1, 3), var()}, {pick(-3, 3), var()}},
                                    pick(0, 2 * max_val));
                    break;
                case 1:
                    post_not_equal(s, var(), var(), pick(-1, 1));
                    break;
                case 2: {
                    // y = f(x) over a random table, x and y distinct.
                    const int a = pick(0, n - 1);
                    const int b = (a + pick(1, n - 1)) % n;
                    std::vector<int> table;
                    for (int i = 0; i <= max_val; ++i) table.push_back(pick(0, max_val));
                    post_unary_fun(s, m.xs[static_cast<std::size_t>(a)],
                                   m.xs[static_cast<std::size_t>(b)], [table](int v) {
                                       return table[static_cast<std::size_t>(v)];
                                   });
                    break;
                }
                case 3: {
                    std::vector<CumulTask> tasks;
                    const int dur = pick(1, 2);
                    for (const IntVar x : m.xs) tasks.push_back({x, dur, 1});
                    post_cumulative(s, tasks, pick(1, 2));
                    break;
                }
                case 4: {
                    // Rectangles at (x, y) with a variable width.
                    std::vector<Rect> rects;
                    const int k = pick(2, 3);
                    for (int i = 0; i < k; ++i) {
                        const IntVar x = var();
                        const IntVar y = var();
                        const IntVar width = s.new_var(pick(0, 1), 2);
                        rects.push_back({x, y, width, pick(1, 2)});
                    }
                    post_diff2(s, rects);
                    break;
                }
                case 5: {
                    const BoolVar p = s.new_bool();
                    const BoolVar q = s.new_bool();
                    post_reified_eq(s, p, var(), var());
                    post_reified_eq_const(s, q, var(), pick(0, max_val));
                    post_implies(s, p, q);
                    break;
                }
                case 6: {
                    std::vector<BoolVar> bs;
                    const int k = pick(2, 4);
                    for (int i = 0; i < k; ++i) {
                        const BoolVar b = s.new_bool();
                        post_reified_eq_const(s, b, var(), pick(0, max_val));
                        bs.push_back(b);
                    }
                    const IntVar total = s.new_var(pick(0, 1), pick(1, k));
                    post_bool_sum(s, bs, total);
                    break;
                }
                default: {
                    const IntVar z = s.new_var(0, max_val);
                    post_max(s, z, {var(), var(), var()});
                    post_linear_leq(s, {{1, z}}, pick(1, max_val));
                    break;
                }
            }
        }

        // Objective: minimize a signed weighted sum.
        std::vector<LinTerm> terms;
        int span = 1;
        for (const IntVar x : m.xs) {
            const int w = pick(-2, 2);
            terms.push_back({w, x});
            span += std::abs(w) * max_val;
        }
        m.objective = s.new_var(-span, span);
        terms.push_back({-1, m.objective});
        post_linear_eq(s, terms, 0);
        return m;
    };
}

}  // namespace revec::cp::testing
