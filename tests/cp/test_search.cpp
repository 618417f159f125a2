#include "revec/cp/search.hpp"

#include <gtest/gtest.h>

#include "revec/cp/arith.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/linear.hpp"

namespace revec::cp {
namespace {

TEST(Search, SatisfyFindsFirstSolution) {
    Store s;
    const IntVar x = s.new_var(0, 5);
    const IntVar y = s.new_var(0, 5);
    post_linear_eq(s, {{1, x}, {1, y}}, 5);
    const SolveResult r = satisfy(s, {Phase{{x, y}, VarSelect::InputOrder, ValSelect::Min, ""}});
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value_of(x) + r.value_of(y), 5);
    EXPECT_EQ(r.stats.solutions, 1);
}

TEST(Search, UnsatReported) {
    Store s;
    const IntVar x = s.new_var(0, 2);
    const IntVar y = s.new_var(0, 2);
    post_linear_eq(s, {{1, x}, {1, y}}, 9);
    const SolveResult r = satisfy(s, {Phase{{x, y}, VarSelect::InputOrder, ValSelect::Min, ""}});
    EXPECT_EQ(r.status, SolveStatus::Unsat);
    EXPECT_FALSE(r.has_solution());
}

TEST(Search, UnsatRequiringSearch) {
    // Pigeonhole 3 into 2: pairwise distinct, needs branching to refute.
    Store s;
    const IntVar a = s.new_var(0, 1);
    const IntVar b = s.new_var(0, 1);
    const IntVar c = s.new_var(0, 1);
    post_not_equal(s, a, b);
    post_not_equal(s, b, c);
    post_not_equal(s, a, c);
    const SolveResult r = satisfy(s, {Phase{{a, b, c}, VarSelect::InputOrder, ValSelect::Min, ""}});
    EXPECT_EQ(r.status, SolveStatus::Unsat);
    EXPECT_GT(r.stats.failures, 0);
}

TEST(Search, MinimizeFindsOptimum) {
    Store s;
    const IntVar x = s.new_var(0, 9);
    const IntVar y = s.new_var(0, 9);
    const IntVar obj = s.new_var(0, 18);
    // x + y >= 7, minimize x + y.
    post_linear_leq(s, {{-1, x}, {-1, y}}, -7);
    post_linear_eq(s, {{1, x}, {1, y}, {-1, obj}}, 0);
    const SolveResult r = solve(s, {Phase{{x, y}, VarSelect::InputOrder, ValSelect::Max, ""}}, obj);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value_of(obj), 7);
    EXPECT_GT(r.stats.solutions, 1);  // improved at least once from the Max start
}

TEST(Search, MinimizationProvesOptimality) {
    // Minimize makespan of chained precedences: result fully determined.
    Store s;
    const int n = 5;
    std::vector<IntVar> starts;
    for (int i = 0; i < n; ++i) starts.push_back(s.new_var(0, 100));
    for (int i = 0; i + 1 < n; ++i) post_leq_offset(s, starts[static_cast<std::size_t>(i)], 7, starts[static_cast<std::size_t>(i) + 1]);
    const IntVar obj = s.new_var(0, 200);
    post_max(s, obj, starts);
    const SolveResult r =
        solve(s, {Phase{starts, VarSelect::SmallestMin, ValSelect::Min, ""}}, obj);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value_of(obj), 28);  // 4 hops * 7
}

TEST(Search, PhasesRunInOrder) {
    // Phase 1 decides x (prefer Max); phase 2 decides y (prefer Min). If the
    // phases were interleaved by first-fail, y (larger domain) would not stay
    // at its minimum.
    Store s;
    const IntVar x = s.new_var(0, 3);
    const IntVar y = s.new_var(0, 30);
    post_linear_leq(s, {{1, x}, {1, y}}, 30);
    const SolveResult r = satisfy(s, {Phase{{x}, VarSelect::InputOrder, ValSelect::Max, "p1"},
                                      Phase{{y}, VarSelect::InputOrder, ValSelect::Min, "p2"}});
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value_of(x), 3);
    EXPECT_EQ(r.value_of(y), 0);
}

TEST(Search, VarSelectMinDomain) {
    Store s;
    const IntVar wide = s.new_var(0, 100);
    const IntVar narrow = s.new_var(0, 1);
    post_linear_leq(s, {{1, wide}, {1, narrow}}, 100);
    const SolveResult r =
        satisfy(s, {Phase{{wide, narrow}, VarSelect::MinDomain, ValSelect::Min, ""}});
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    // Not directly observable which var branched first, but search must work.
    EXPECT_TRUE(r.has_solution());
}

TEST(Search, FailureLimitTriggersTimeoutStatus) {
    // Pigeonhole 5 into 4 with a failure budget of 1.
    Store s;
    std::vector<IntVar> xs;
    for (int i = 0; i < 5; ++i) xs.push_back(s.new_var(0, 3));
    for (std::size_t i = 0; i < xs.size(); ++i) {
        for (std::size_t j = i + 1; j < xs.size(); ++j) post_not_equal(s, xs[i], xs[j]);
    }
    SearchOptions opts;
    opts.max_failures = 1;
    const SolveResult r = satisfy(s, {Phase{xs, VarSelect::InputOrder, ValSelect::Min, ""}}, opts);
    EXPECT_EQ(r.status, SolveStatus::Timeout);
}

TEST(Search, DeadlineAlreadyExpired) {
    Store s;
    const IntVar x = s.new_var(0, 5);
    SearchOptions opts;
    opts.deadline = Deadline::after_ms(0);
    const SolveResult r = satisfy(s, {Phase{{x}, VarSelect::InputOrder, ValSelect::Min, ""}}, opts);
    EXPECT_EQ(r.status, SolveStatus::Timeout);
}

TEST(Search, SatTimeoutKeepsBestSolution) {
    // Minimization with a failure limit that lets it find some solution but
    // not prove optimality.
    Store s;
    std::vector<IntVar> xs;
    for (int i = 0; i < 6; ++i) xs.push_back(s.new_var(0, 5));
    for (std::size_t i = 0; i < xs.size(); ++i) {
        for (std::size_t j = i + 1; j < xs.size(); ++j) post_not_equal(s, xs[i], xs[j]);
    }
    const IntVar obj = s.new_var(0, 5);
    post_max(s, obj, xs);
    SearchOptions opts;
    opts.max_failures = 0;  // stop at the very first backtrack
    const SolveResult r =
        solve(s, {Phase{xs, VarSelect::InputOrder, ValSelect::Max, ""}}, obj, opts);
    EXPECT_EQ(r.status, SolveStatus::SatTimeout);
    EXPECT_TRUE(r.has_solution());
}

TEST(Search, StoreRestoredToRootAfterSolve) {
    Store s;
    const IntVar x = s.new_var(0, 5);
    const IntVar y = s.new_var(0, 5);
    post_not_equal(s, x, y);
    (void)satisfy(s, {Phase{{x, y}, VarSelect::InputOrder, ValSelect::Min, ""}});
    EXPECT_EQ(s.level(), 0);
    EXPECT_EQ(s.min(x), 0);
    EXPECT_EQ(s.max(x), 5);
}

TEST(Search, SolutionValuesAreConsistent) {
    // All recorded values must satisfy all constraints (checked manually).
    Store s;
    const IntVar x = s.new_var(0, 8);
    const IntVar y = s.new_var(0, 8);
    const IntVar z = s.new_var(0, 8);
    post_not_equal(s, x, y);
    post_not_equal(s, y, z);
    post_linear_eq(s, {{1, x}, {1, y}, {1, z}}, 12);
    const SolveResult r =
        satisfy(s, {Phase{{x, y, z}, VarSelect::MinDomain, ValSelect::Min, ""}});
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NE(r.value_of(x), r.value_of(y));
    EXPECT_NE(r.value_of(y), r.value_of(z));
    EXPECT_EQ(r.value_of(x) + r.value_of(y) + r.value_of(z), 12);
}

// Branch-and-bound equivalence: optimum from solve() equals brute force.
TEST(SearchProperty, OptimumMatchesBruteForce) {
    // min z = 3x - 2y subject to x + y <= 6, x != y, 0<=x,y<=6.
    int best = 1 << 30;
    for (int x = 0; x <= 6; ++x) {
        for (int y = 0; y <= 6; ++y) {
            if (x + y <= 6 && x != y) best = std::min(best, 3 * x - 2 * y + 20);
        }
    }
    Store s;
    const IntVar x = s.new_var(0, 6);
    const IntVar y = s.new_var(0, 6);
    const IntVar obj = s.new_var(0, 60);
    post_linear_leq(s, {{1, x}, {1, y}}, 6);
    post_not_equal(s, x, y);
    post_linear_eq(s, {{3, x}, {-2, y}, {-1, obj}}, -20);
    const SolveResult r =
        solve(s, {Phase{{x, y}, VarSelect::InputOrder, ValSelect::Max, ""}}, obj);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value_of(obj), best);
}

// A small jobshop-flavoured combined model touching every propagator class.
TEST(SearchIntegration, CombinedModel) {
    Store s;
    // 4 unit tasks on capacity-2 resource, precedence chain on two of them,
    // makespan minimized.
    std::vector<IntVar> starts;
    std::vector<CumulTask> tasks;
    for (int i = 0; i < 4; ++i) {
        starts.push_back(s.new_var(0, 10));
        tasks.push_back({starts.back(), 1, 1});
    }
    post_cumulative(s, tasks, 2);
    post_leq_offset(s, starts[0], 2, starts[1]);  // latency edge
    const IntVar obj = s.new_var(0, 20);
    post_max(s, obj, starts);
    const SolveResult r =
        solve(s, {Phase{starts, VarSelect::SmallestMin, ValSelect::Min, ""}}, obj);
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_EQ(r.value_of(obj), 2);  // t0@0, t2@0, t3@1, t1@2
}

}  // namespace
}  // namespace revec::cp
