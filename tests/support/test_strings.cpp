#include "revec/support/strings.hpp"

#include <gtest/gtest.h>

#include "revec/support/assert.hpp"

namespace revec {
namespace {

TEST(Split, BasicFields) {
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields) {
    const auto parts = split(",x,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[1], "x");
    EXPECT_EQ(parts[2], "");
}

TEST(Split, NoSeparatorYieldsWhole) {
    const auto parts = split("hello", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "hello");
}

TEST(Trim, StripsBothEnds) { EXPECT_EQ(trim("  x y \t\n"), "x y"); }

TEST(Trim, AllWhitespaceBecomesEmpty) { EXPECT_EQ(trim(" \t "), ""); }

TEST(Trim, NoWhitespaceUnchanged) { EXPECT_EQ(trim("abc"), "abc"); }

TEST(StartsWith, Matches) {
    EXPECT_TRUE(starts_with("vector_op", "vector"));
    EXPECT_FALSE(starts_with("vec", "vector"));
    EXPECT_TRUE(starts_with("x", ""));
}

TEST(ParseInt, ParsesSignedValues) {
    EXPECT_EQ(parse_int("42"), 42);
    EXPECT_EQ(parse_int("-7"), -7);
    EXPECT_EQ(parse_int("  123 "), 123);
}

TEST(ParseInt, RejectsGarbage) {
    EXPECT_THROW(parse_int("12x"), Error);
    EXPECT_THROW(parse_int(""), Error);
    EXPECT_THROW(parse_int("4.5"), Error);
}

TEST(ParseDouble, ParsesValues) {
    EXPECT_DOUBLE_EQ(parse_double("0.026"), 0.026);
    EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
    EXPECT_THROW(parse_double("abc"), Error);
    EXPECT_THROW(parse_double("1.2.3"), Error);
}

TEST(FormatFixed, RoundsToPrecision) {
    EXPECT_EQ(format_fixed(0.0264, 3), "0.026");
    EXPECT_EQ(format_fixed(1.0 / 46.0, 3), "0.022");
    EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(EditDistance, BasicOperations) {
    EXPECT_EQ(edit_distance("", ""), 0u);
    EXPECT_EQ(edit_distance("trace", "trace"), 0u);
    EXPECT_EQ(edit_distance("", "abc"), 3u);
    EXPECT_EQ(edit_distance("abc", ""), 3u);
    EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
    EXPECT_EQ(edit_distance("--trase", "--trace"), 1u);   // substitution
    EXPECT_EQ(edit_distance("--trce", "--trace"), 1u);    // insertion
    EXPECT_EQ(edit_distance("--ttrace", "--trace"), 1u);  // deletion
}

TEST(EditDistance, IsSymmetric) {
    EXPECT_EQ(edit_distance("--metrics", "--emit"), edit_distance("--emit", "--metrics"));
}

TEST(ClosestFlag, SuggestsOnlyPlausibleTypos) {
    const std::vector<std::string> known = {"--threads", "--trace", "--seed"};
    EXPECT_EQ(closest_flag("--trase=t.json", known), "--trace");  // the name before '='
    EXPECT_EQ(closest_flag("--thread=2", known), "--threads");
    EXPECT_EQ(closest_flag("--lns-workers=2", known), "");  // nothing within 2 edits
}

TEST(EndsWith, Matches) {
    EXPECT_TRUE(ends_with("trace.jsonl", ".jsonl"));
    EXPECT_TRUE(ends_with("x", ""));
    EXPECT_FALSE(ends_with("trace.json", ".jsonl"));
    EXPECT_FALSE(ends_with("l", ".jsonl"));
}

TEST(GlobMatch, LiteralAndWildcards) {
    EXPECT_TRUE(glob_match("svc.cache.hit", "svc.cache.hit"));
    EXPECT_FALSE(glob_match("svc.cache.hit", "svc.cache.miss"));
    EXPECT_TRUE(glob_match("svc.*", "svc.cache.hit"));
    EXPECT_TRUE(glob_match("*.hit", "svc.cache.hit"));
    EXPECT_TRUE(glob_match("svc.*.hit", "svc.cache.hit"));
    EXPECT_FALSE(glob_match("svc.*.hit", "svc.cache.miss"));
    EXPECT_TRUE(glob_match("*", ""));
    EXPECT_TRUE(glob_match("*", "anything"));
    EXPECT_FALSE(glob_match("", "x"));
    EXPECT_TRUE(glob_match("", ""));
}

TEST(GlobMatch, QuestionMarkAndBacktracking) {
    EXPECT_TRUE(glob_match("a?c", "abc"));
    EXPECT_FALSE(glob_match("a?c", "ac"));
    // Single-star backtracking: the first '*' must be able to re-expand.
    EXPECT_TRUE(glob_match("*ab", "aab"));
    EXPECT_TRUE(glob_match("a*b*c", "axxbyyc"));
    EXPECT_FALSE(glob_match("a*b*c", "axxbyy"));
    EXPECT_TRUE(glob_match("svc.phase.*_ms", "svc.phase.queue_wait_ms"));
}

}  // namespace
}  // namespace revec
