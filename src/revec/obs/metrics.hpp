// Metrics registry (DESIGN §5g): the machine-readable end-of-run summary
// of a solve. Named counters, gauges, labels, and log2-bucketed histograms
// under dotted names ("solve.nodes", "engine.wakeups",
// "prop.Cumulative.time_us", "worker.2.failures"), serialized as a
// deterministic JSON document the benches and CI can diff.
//
// The registry is the reporting currency of the solver's counter structs:
// cp::SolveWork exports its search, engine and per-propagator-class
// counters into it (cp/counters.hpp), and anything downstream — `revecc
// --metrics=F`, the bench harnesses, revec-stats — reads the one JSON shape
// instead of each struct. Not thread-safe: each worker fills its own
// registry (or its own counter structs) and the merge goes through absorb()
// after the join, mirroring the SolveWork::absorb portfolio merge.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace revec::obs {

/// Histogram of non-negative samples: count/sum/min/max plus power-of-two
/// magnitude buckets (bucket k counts samples in [2^k, 2^(k+1)), bucket 0
/// also takes everything below 1).
struct Histogram {
    static constexpr int kBuckets = 32;

    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< defined when count > 0
    double max = 0.0;  ///< defined when count > 0
    std::array<std::int64_t, kBuckets> buckets{};

    void observe(double v);
    void absorb(const Histogram& other);
    double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

    /// Approximate quantile (q in [0,1]) from the log2 buckets: finds the
    /// bucket holding the q-th sample and interpolates linearly inside its
    /// [2^k, 2^(k+1)) range, clamped to the observed min/max. 0 when empty.
    double quantile(double q) const;
};

/// Quantile over an externally-held bucket vector (e.g. parsed back from
/// metrics JSON, where trailing zero buckets are elided). Same estimator
/// as Histogram::quantile but without min/max clamping.
double histogram_quantile(const std::vector<std::int64_t>& buckets, double q);

class MetricsRegistry {
public:
    // -- writes ---------------------------------------------------------------
    void add(const std::string& name, std::int64_t delta = 1);
    void set(const std::string& name, std::int64_t value);
    void gauge(const std::string& name, double value);
    void label(const std::string& name, std::string value);
    void observe(const std::string& name, double value);  ///< histogram sample

    // -- reads ----------------------------------------------------------------
    std::int64_t counter(const std::string& name) const;  ///< 0 when absent
    bool has_counter(const std::string& name) const;
    double gauge_value(const std::string& name) const;  ///< 0.0 when absent
    const std::string* label_value(const std::string& name) const;
    const Histogram* histogram(const std::string& name) const;
    std::size_t size() const {
        return counters_.size() + gauges_.size() + labels_.size() + hists_.size();
    }

    /// Portfolio-style merge: counters add, histograms merge, gauges and
    /// labels take the other's value when present (last writer wins — use
    /// counters for anything that must sum).
    void absorb(const MetricsRegistry& other);

    /// Deterministic JSON: sections in fixed order, names sorted.
    void write_json(std::ostream& os) const;
    std::string to_json() const;

    /// Write to `path`; throws revec::Error on I/O failure.
    void save_json(const std::string& path) const;

private:
    std::map<std::string, std::int64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, std::string> labels_;
    std::map<std::string, Histogram> hists_;
};

}  // namespace revec::obs
