// The merge arithmetic behind every report, driven by the counter field
// tables: each SearchStats / PropagationStats / PropProfile field merges by
// its rule, reaches the metrics registry under its stable name (summing the
// same way across repeated exports), and SolveWork merges and exports all
// three. The static_asserts fail the build when a member is added to a
// stats struct without a field-table row.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "revec/cp/counters.hpp"
#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"
#include "revec/obs/metrics.hpp"

namespace revec::cp {
namespace {

/// Number of rows in a field table.
template <typename Stats>
constexpr std::size_t field_count() {
    std::size_t n = 0;
    Stats s{};
    Stats::for_each_field([&n](const char*, MergeRule, const auto&) { ++n; }, s);
    return n;
}

// Every member is one 8-byte field-table row (PropProfile: plus its class
// name key), so a member without a row changes the size and fails here.
static_assert(sizeof(SearchStats) == field_count<SearchStats>() * sizeof(std::int64_t));
static_assert(sizeof(PropagationStats) ==
              field_count<PropagationStats>() * sizeof(std::int64_t));
static_assert(sizeof(PropProfile) ==
              sizeof(const char*) + field_count<PropProfile>() * sizeof(std::int64_t));

struct Row {
    std::string name;
    MergeRule rule;
    double value;
};

/// The field table of `s` with its current values.
template <typename Stats>
std::vector<Row> rows(const Stats& s) {
    std::vector<Row> out;
    Stats::for_each_field(
        [&](const char* name, MergeRule rule, const auto& v) {
            out.push_back({name, rule, static_cast<double>(v)});
        },
        s);
    return out;
}

/// A struct whose i-th field holds base + i, so every field is distinct.
template <typename Stats>
Stats filled(std::int64_t base) {
    Stats s{};
    std::int64_t i = 0;
    Stats::for_each_field(
        [&](const char*, MergeRule, auto& v) {
            v = static_cast<std::remove_reference_t<decltype(v)>>(base + i++);
        },
        s);
    return s;
}

/// What merging `b` into `a` must give for one field.
double merged(MergeRule rule, double a, double b) {
    switch (rule) {
        case MergeRule::Sum: return a + b;
        case MergeRule::Max: return std::max(a, b);
        case MergeRule::Gauge: return a;
    }
    return 0.0;
}

std::vector<std::string> names(const std::vector<Row>& rs) {
    std::vector<std::string> out;
    for (const Row& r : rs) out.push_back(r.name);
    return out;
}

/// Merge in both directions and check every field against its rule.
template <typename Stats>
void expect_merges_by_rule() {
    const Stats big = filled<Stats>(100);
    const Stats small = filled<Stats>(10);
    for (const auto& [into, from] : {std::pair{big, small}, std::pair{small, big}}) {
        Stats m = into;
        merge_counters(m, from);
        const std::vector<Row> want_into = rows(into);
        const std::vector<Row> want_from = rows(from);
        const std::vector<Row> got = rows(m);
        ASSERT_EQ(got.size(), want_into.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].value,
                      merged(got[i].rule, want_into[i].value, want_from[i].value))
                << got[i].name;
        }
    }
}

/// Export two structs into one registry under `prefix`: every field must be
/// there under its name, combined like merge_counters (gauges: last writer).
template <typename Stats>
void expect_exports_like_merge(const std::string& prefix) {
    const Stats a = filled<Stats>(100);
    const Stats b = filled<Stats>(10);
    obs::MetricsRegistry m;
    export_counters(a, m, prefix);
    export_counters(b, m, prefix);
    const std::vector<Row> ra = rows(a);
    const std::vector<Row> rb = rows(b);
    EXPECT_EQ(m.size(), ra.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        const std::string key = prefix + ra[i].name;
        if (ra[i].rule == MergeRule::Gauge) {
            EXPECT_EQ(m.gauge_value(key), rb[i].value) << key;
        } else {
            ASSERT_TRUE(m.has_counter(key)) << key;
            EXPECT_EQ(static_cast<double>(m.counter(key)),
                      merged(ra[i].rule, ra[i].value, rb[i].value))
                << key;
        }
    }
}

TEST(StatsMerge, SearchStatsAbsorbAddsEverythingButTime) {
    expect_merges_by_rule<SearchStats>();
    // time_ms is wall clock, not CPU time: the merge leaves it alone.
    SearchStats a;
    a.time_ms = 1000.0;
    SearchStats b;
    b.time_ms = 7.0;
    merge_counters(a, b);
    EXPECT_DOUBLE_EQ(a.time_ms, 1000.0);
}

TEST(StatsMerge, PropagationStatsAbsorbAddsAndMaxMerges) {
    expect_merges_by_rule<PropagationStats>();
    // The high-water mark must not shrink, and nothing else is a maximum.
    for (const Row& r : rows(PropagationStats{})) {
        EXPECT_EQ(r.rule, r.name == "max_queue_depth" ? MergeRule::Max : MergeRule::Sum)
            << r.name;
    }
}

TEST(StatsMerge, SearchStatsExportSumsLikeAbsorb) {
    expect_exports_like_merge<SearchStats>("solve.");
}

TEST(StatsMerge, PropagationStatsExportSumsAndMaxMerges) {
    expect_exports_like_merge<PropagationStats>("engine.");
}

TEST(StatsMerge, PropProfileCountersSumAndExport) {
    expect_merges_by_rule<PropProfile>();
    expect_exports_like_merge<PropProfile>("prop.Cumulative.");
}

TEST(StatsMerge, MetricNamesAreStable) {
    // The registry names every dashboard, CI gate and BENCH_*.json reads.
    EXPECT_EQ(names(rows(SearchStats{})),
              (std::vector<std::string>{"nodes", "failures", "solutions", "cutoff_prunes",
                                        "restarts", "time_ms"}));
    EXPECT_EQ(names(rows(PropagationStats{})),
              (std::vector<std::string>{
                  "propagations", "domain_changes", "events.min", "events.max",
                  "events.fixed", "events.domain", "wakeups", "wakeups_filtered",
                  "self_wakeups_suppressed", "queue_pushes.unary", "queue_pushes.linear",
                  "queue_pushes.global", "max_queue_depth", "trail_saves",
                  "trail_snapshots", "trail_bytes"}));
    EXPECT_EQ(names(rows(PropProfile{})),
              (std::vector<std::string>{"runs", "domain_changes", "failures", "time_us"}));
}

TEST(StatsMerge, SolveWorkExportsEveryCounterUnderItsPrefix) {
    SolveWork w;
    w.stats = filled<SearchStats>(1);
    w.prop_stats = filled<PropagationStats>(1);
    w.prop_profile = {{"AccessGroupProp", 1, 2, 3, 4}, {"Cumulative", 5, 6, 7, 8}};
    obs::MetricsRegistry m;
    w.export_metrics(m);

    std::size_t expected = 0;
    const auto expect_rows = [&](const std::string& prefix, const std::vector<Row>& rs) {
        for (const Row& r : rs) {
            const std::string key = prefix + r.name;
            if (r.rule == MergeRule::Gauge) {
                EXPECT_EQ(m.gauge_value(key), r.value) << key;
            } else {
                EXPECT_EQ(static_cast<double>(m.counter(key)), r.value) << key;
            }
            ++expected;
        }
    };
    expect_rows("solve.", rows(w.stats));
    expect_rows("engine.", rows(w.prop_stats));
    for (const PropProfile& p : w.prop_profile) {
        expect_rows(std::string("prop.") + p.cls + ".", rows(p));
    }
    EXPECT_EQ(m.size(), expected);  // and nothing else
}

TEST(StatsMerge, PropProfilesMergeByClassAndStaySorted) {
    SolveWork into;
    into.prop_profile = {
        {"Cumulative", 10, 5, 1, 100},
        {"LinearLeq", 20, 8, 0, 50},
    };
    SolveWork from;
    from.prop_profile = {
        {"AccessGroupProp", 1, 1, 0, 9},
        {"Cumulative", 5, 2, 3, 40},
    };
    into.absorb(from);
    ASSERT_EQ(into.prop_profile.size(), 3u);
    EXPECT_STREQ(into.prop_profile[0].cls, "AccessGroupProp");
    EXPECT_STREQ(into.prop_profile[1].cls, "Cumulative");
    EXPECT_STREQ(into.prop_profile[2].cls, "LinearLeq");
    EXPECT_EQ(into.prop_profile[1].runs, 15);
    EXPECT_EQ(into.prop_profile[1].domain_changes, 7);
    EXPECT_EQ(into.prop_profile[1].failures, 4);
    EXPECT_EQ(into.prop_profile[1].time_us, 140);

    obs::MetricsRegistry m;
    into.export_metrics(m);
    EXPECT_EQ(m.counter("prop.Cumulative.runs"), 15);
    EXPECT_EQ(m.counter("prop.Cumulative.failures"), 4);
    EXPECT_EQ(m.counter("prop.AccessGroupProp.time_us"), 9);
    EXPECT_EQ(m.counter("prop.LinearLeq.domain_changes"), 8);
}

TEST(StatsMerge, SolveWorkAbsorbMergesAllThreeParts) {
    SolveWork a;
    a.stats = filled<SearchStats>(100);
    a.prop_stats = filled<PropagationStats>(100);
    SolveWork b;
    b.stats = filled<SearchStats>(10);
    b.prop_stats = filled<PropagationStats>(10);
    b.prop_profile = {{"Clause", 3, 0, 0, 1}};

    SearchStats want_stats = a.stats;
    merge_counters(want_stats, b.stats);
    PropagationStats want_prop = a.prop_stats;
    merge_counters(want_prop, b.prop_stats);

    a.absorb(b);
    const auto values = [](const std::vector<Row>& rs) {
        std::vector<double> v;
        for (const Row& r : rs) v.push_back(r.value);
        return v;
    };
    EXPECT_EQ(values(rows(a.stats)), values(rows(want_stats)));
    EXPECT_EQ(values(rows(a.prop_stats)), values(rows(want_prop)));
    ASSERT_EQ(a.prop_profile.size(), 1u);
    EXPECT_EQ(a.prop_profile[0].runs, 3);
}

}  // namespace
}  // namespace revec::cp
