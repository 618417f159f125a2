#include "revec/cp/arith.hpp"

#include <gtest/gtest.h>

namespace revec::cp {
namespace {

TEST(Max, BoundsFromOperands) {
    Store s;
    const IntVar a = s.new_var(2, 5);
    const IntVar b = s.new_var(1, 8);
    const IntVar z = s.new_var(0, 100);
    post_max(s, z, {a, b});
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(z), 2);
    EXPECT_EQ(s.max(z), 8);
}

TEST(Max, OperandsBoundedByZ) {
    Store s;
    const IntVar a = s.new_var(0, 50);
    const IntVar b = s.new_var(0, 50);
    const IntVar z = s.new_var(0, 10);
    post_max(s, z, {a, b});
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.max(a), 10);
    EXPECT_EQ(s.max(b), 10);
}

TEST(Max, SingleWitnessForcedUp) {
    Store s;
    const IntVar a = s.new_var(0, 3);
    const IntVar b = s.new_var(0, 9);
    const IntVar z = s.new_var(7, 9);
    post_max(s, z, {a, b});
    ASSERT_TRUE(s.propagate());
    // Only b can reach z >= 7.
    EXPECT_EQ(s.min(b), 7);
}

TEST(Max, FixesWhenAllOperandsFixed) {
    Store s;
    const IntVar a = s.new_var(0, 10);
    const IntVar b = s.new_var(0, 10);
    const IntVar z = s.new_var(0, 10);
    post_max(s, z, {a, b});
    ASSERT_TRUE(s.assign(a, 4));
    ASSERT_TRUE(s.assign(b, 6));
    ASSERT_TRUE(s.propagate());
    EXPECT_TRUE(s.fixed(z));
    EXPECT_EQ(s.value(z), 6);
}

TEST(Max, FailsOnImpossibleZ) {
    Store s;
    const IntVar a = s.new_var(0, 3);
    const IntVar b = s.new_var(0, 3);
    const IntVar z = s.new_var(5, 9);
    post_max(s, z, {a, b});
    EXPECT_FALSE(s.propagate());
}

TEST(Max, MakespanUseCase) {
    // obj = max of completion times, as in eq. (5).
    Store s;
    std::vector<IntVar> completions;
    for (int i = 0; i < 5; ++i) completions.push_back(s.new_var(i, i + 10));
    const IntVar obj = s.new_var(0, 1000);
    post_max(s, obj, completions);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(obj), 4);
    EXPECT_EQ(s.max(obj), 14);
    // Minimizing the objective presses all completions down.
    ASSERT_TRUE(s.set_max(obj, 6));
    ASSERT_TRUE(s.propagate());
    for (const IntVar c : completions) EXPECT_LE(s.max(c), 6);
}

TEST(UnaryFun, LineOfSlotChanneling) {
    // line = slot / 16 with 16 banks (eq. 6).
    Store s;
    const IntVar slot = s.new_var(0, 63);
    const IntVar line = s.new_var(0, 3);
    post_unary_fun(s, slot, line, [](int v) { return v / 16; });
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(line), 0);
    EXPECT_EQ(s.max(line), 3);
    ASSERT_TRUE(s.set_min(slot, 33));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(line), 2);
    ASSERT_TRUE(s.assign(line, 3));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(slot), 48);
    EXPECT_EQ(s.max(slot), 63);
}

TEST(UnaryFun, PageOfSlotChanneling) {
    // page = (slot mod 16) / 4 (eq. 6).
    Store s;
    const IntVar slot = s.new_var(0, 63);
    const IntVar page = s.new_var(0, 3);
    post_unary_fun(s, slot, page, [](int v) { return (v % 16) / 4; });
    ASSERT_TRUE(s.assign(page, 1));
    ASSERT_TRUE(s.propagate());
    // Supported slots: slot mod 16 in {4..7}.
    s.dom(slot).for_each([](int v) { EXPECT_TRUE((v % 16) / 4 == 1) << v; });
    EXPECT_EQ(s.dom(slot).size(), 16);
}

TEST(UnaryFun, ImageRestrictsY) {
    Store s;
    const IntVar x = s.new_var(Domain::of_values({2, 4, 6}));
    const IntVar y = s.new_var(0, 100);
    post_unary_fun(s, x, y, [](int v) { return v * v; });
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.dom(y).to_string(), "{4, 16, 36}");
}

TEST(UnaryFun, FailsOnEmptyIntersection) {
    Store s;
    const IntVar x = s.new_var(0, 3);
    const IntVar y = s.new_var(50, 60);
    post_unary_fun(s, x, y, [](int v) { return v; });
    EXPECT_FALSE(s.propagate());
}

TEST(UnaryFun, WideYKeepsOnlyImages) {
    Store s;
    const IntVar x = s.new_var(0, 9);
    const IntVar y = s.new_var(-1000000, 1000000);
    post_unary_fun(s, x, y, [](int v) { return 2 * (v / 3); });
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.dom(y).to_string(), "{0, 2, 4, 6}");
    ASSERT_TRUE(s.remove(y, 2));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.dom(x).to_string(), "{0..2, 6..9}");
}

TEST(UnaryFun, EvaluatesFunctionOnlyWhenPosted) {
    // f is tabulated over x's domain at post time; runs look it up.
    Store s;
    const IntVar x = s.new_var(Domain::of_values({1, 3, 5, 7}));
    const IntVar y = s.new_var(0, 20);
    int calls = 0;
    post_unary_fun(s, x, y, [&calls](int v) { ++calls; return v + 1; });
    EXPECT_EQ(calls, 4);
    ASSERT_TRUE(s.propagate());
    s.push_level();
    ASSERT_TRUE(s.set_max(y, 6));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.dom(x).to_string(), "{1, 3, 5}");
    s.pop_level();
    EXPECT_EQ(calls, 4);
}

}  // namespace
}  // namespace revec::cp
