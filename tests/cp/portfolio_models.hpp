// Deterministic random scheduling-model generators shared by the portfolio
// test suites. Each generator returns a re-posting ModelBuilder, so the
// same instance can be built into any number of independent stores — the
// property the portfolio solver relies on.
#pragma once

#include <string>
#include <vector>

#include "revec/cp/arith.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/portfolio.hpp"
#include "revec/support/rng.hpp"

namespace revec::cp::testing {

/// A random resource-constrained project-scheduling instance: `tasks`
/// tasks with random durations/demands, random precedences, one cumulative
/// resource of the given capacity, makespan objective, and the decision
/// variables split over two phases (to exercise the phased brancher).
/// Deterministic in `seed`: every invocation posts identical variables and
/// constraints.
inline ModelBuilder random_rcpsp(std::uint32_t seed, int tasks, int capacity = 3) {
    return [seed, tasks, capacity](Store& s) -> PostedModel {
        XorShift rng(seed);
        std::vector<int> dur;
        std::vector<int> demand;
        int total = 0;
        for (int i = 0; i < tasks; ++i) {
            dur.push_back(1 + rng.below(4));
            demand.push_back(1 + rng.below(2));
            total += dur.back();
        }
        const int horizon = total;

        std::vector<IntVar> start;
        for (int i = 0; i < tasks; ++i) {
            start.push_back(s.new_var(0, horizon, "s" + std::to_string(i)));
        }
        // Random precedences: about half the tasks get one predecessor.
        for (int j = 1; j < tasks; ++j) {
            if (rng.below(2) == 0) {
                const int i = rng.below(j);
                post_leq_offset(s, start[static_cast<std::size_t>(i)],
                                dur[static_cast<std::size_t>(i)],
                                start[static_cast<std::size_t>(j)]);
            }
        }
        std::vector<CumulTask> cumul;
        for (int i = 0; i < tasks; ++i) {
            cumul.push_back({start[static_cast<std::size_t>(i)],
                             dur[static_cast<std::size_t>(i)],
                             demand[static_cast<std::size_t>(i)]});
        }
        post_cumulative(s, cumul, capacity);

        const IntVar obj = s.new_var(0, horizon, "makespan");
        std::vector<IntVar> ends;
        for (int i = 0; i < tasks; ++i) {
            const IntVar e = s.new_var(0, horizon, "e" + std::to_string(i));
            post_eq_offset(s, start[static_cast<std::size_t>(i)],
                           dur[static_cast<std::size_t>(i)], e);
            ends.push_back(e);
        }
        post_max(s, obj, ends);

        const std::size_t half = start.size() / 2;
        PostedModel model;
        model.phases.push_back({{start.begin(), start.begin() + static_cast<std::ptrdiff_t>(half)},
                                VarSelect::SmallestMin, ValSelect::Min, "front"});
        model.phases.push_back({{start.begin() + static_cast<std::ptrdiff_t>(half), start.end()},
                                VarSelect::SmallestMin, ValSelect::Min, "back"});
        model.objective = obj;
        return model;
    };
}

/// A pigeonhole-style UNSAT instance that needs actual search (not just
/// root propagation) to refute: n pairwise-distinct variables on a domain
/// of n-1 values, minimized maximum.
inline ModelBuilder pigeonhole_unsat(int n) {
    return [n](Store& s) -> PostedModel {
        std::vector<IntVar> xs;
        for (int i = 0; i < n; ++i) {
            xs.push_back(s.new_var(0, n - 2, "x" + std::to_string(i)));
        }
        for (int a = 0; a < n; ++a) {
            for (int b = a + 1; b < n; ++b) {
                post_not_equal(s, xs[static_cast<std::size_t>(a)],
                               xs[static_cast<std::size_t>(b)]);
            }
        }
        const IntVar obj = s.new_var(0, n, "obj");
        post_max(s, obj, xs);
        PostedModel model;
        model.phases.push_back({xs, VarSelect::MinDomain, ValSelect::Min, "xs"});
        model.objective = obj;
        return model;
    };
}

/// Emit `build` into a fresh store and run the portfolio on it, the way
/// the scheduling layers call it: the caller's emission is worker 0's store,
/// `build` re-emits for the other workers and the replay.
inline PortfolioResult run_portfolio(const ModelBuilder& build, const SolverConfig& config,
                                     const SearchOptions& options = {}) {
    Store store;
    const PostedModel model = build(store);
    return solve_portfolio(store, model, build, config, options);
}

}  // namespace revec::cp::testing
