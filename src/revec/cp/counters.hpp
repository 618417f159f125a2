// Field tables for the solver-work counters. Every stats struct
// (SearchStats, PropagationStats, PropProfile) lists each of its members
// exactly once, in a static for_each_field(), together with the member's
// metric name and merge rule. Merge and metrics export are derived from that
// one list, so a counter cannot be forgotten in a portfolio merge or an
// export. cp::SolveWork (search.hpp) bundles the three into the one record
// every solver result carries.
#pragma once

#include <algorithm>
#include <string>

namespace revec::obs {
class MetricsRegistry;
}  // namespace revec::obs

namespace revec::cp {

/// How a counter combines across workers, restarts and per-II attempts.
enum class MergeRule {
    Sum,    ///< additive work: merged by +, exported with MetricsRegistry::add
    Max,    ///< high-water mark: merged and exported as the maximum
    Gauge,  ///< wall-clock reading: left out of merges, exported as a gauge
};

/// Merge `from` into `into`, field by field, by each field's rule.
template <typename Stats>
void merge_counters(Stats& into, const Stats& from) {
    Stats::for_each_field(
        [](const char*, MergeRule rule, auto& a, const auto& b) {
            if (rule == MergeRule::Sum) a += b;
            if (rule == MergeRule::Max) a = std::max(a, b);
        },
        into, from);
}

/// Export every field of `s` into `m` as "<prefix><name>". Sum fields add
/// into any existing value and Max fields max-merge with it, so repeated
/// exports combine like merge_counters(); Gauge fields are last-writer-wins.
/// Defined for SearchStats, PropagationStats and PropProfile.
template <typename Stats>
void export_counters(const Stats& s, obs::MetricsRegistry& m, const std::string& prefix);

}  // namespace revec::cp
