// Shared pieces of the perfbench program: the span tracer that attributes an
// operation's wall time to layers, the reader for the library's own phase
// spans, per-pass results, and the workload interface.
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "revec/obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every thread), in ms. Time the host
/// gave to other virtual machines (steal) or this machine gave to other
/// processes is not in it, so it is what the timed work cost.
inline double process_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Wall and process CPU time since construction.
class Stopwatch {
public:
    double wall_ms() const { return ms_since(wall0_); }
    double cpu_ms() const { return process_cpu_ms() - cpu0_; }

private:
    Clock::time_point wall0_ = Clock::now();
    double cpu0_ = process_cpu_ms();
};

/// How fast the host runs code like the library's right now (README.md,
/// "Host speed"): a fixed probe, run in chunks between operations, whose
/// CPU time is compared with its time on an idle host.
class HostProbe {
public:
    HostProbe();

    /// Call between operations: runs probe chunks until they have taken
    /// kShare of the CPU time the process spent outside them since the
    /// probe was made.
    void between_ops();

    /// Median chunk time over the idle-host chunk time (1 before any chunk).
    double slowdown() const;

private:
    double chunk_ms();

    double cpu0_ms_;
    double probe_ms_ = 0.0;
    std::vector<double> chunk_ms_;
    std::unique_ptr<std::byte[]> arena_;
};

/// Layer attribution for the operations of one traced pass. Spans nest: a
/// layer's self time is its span minus the spans opened inside it, and
/// minus the library phase spans re-booked out of it with move().
/// merge() combines the tracers of several passes.
class Tracer {
public:
    void begin(const char* layer) { stack_.push_back({layer, Clock::now(), 0.0}); }

    void end() {
        const Frame f = stack_.back();
        stack_.pop_back();
        const double ms = ms_since(f.t0);
        self_ms[f.layer] += ms - f.child_ms;
        if (!stack_.empty()) stack_.back().child_ms += ms;
    }

    /// Re-book `ms` of a closed span's self time from layer `from` to layer
    /// `to`: time the library's own phase spans saw inside that call.
    void move(const char* from, const char* to, double ms) {
        self_ms[from] -= ms;
        self_ms[to] += ms;
    }

    void merge(const Tracer& other) {
        for (const auto& [k, v] : other.self_ms) self_ms[k] += v;
    }

    std::map<std::string, double> self_ms;  ///< layer -> self time, ms

private:
    struct Frame {
        const char* layer;
        Clock::time_point t0;
        double child_ms;
    };
    std::vector<Frame> stack_;
};

/// RAII layer span; a no-op when the pass is untraced (tracer == nullptr).
class Span {
public:
    Span(Tracer* tracer, const char* layer) : tracer_(tracer) {
        if (tracer_ != nullptr) tracer_->begin(layer);
    }
    ~Span() {
        if (tracer_ != nullptr) tracer_->end();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer* tracer_;
};

/// What the library's phase-level trace says about one solve (or one
/// service request): time in the heuristic ladder, in CP emission plus
/// search, in donor adaptation, the search's node count, and the ladder
/// rungs tried.
struct PhaseTimes {
    double heur_ms = 0.0;
    double cp_ms = 0.0;
    double adapt_ms = 0.0;
    std::int64_t nodes = 0;
    std::int64_t rungs = 0;
    std::int64_t rungs_ok = 0;
};

/// Fold every track of a library trace into PhaseTimes keyed by request id
/// (0 when the solve carried none). A request id opens with the service's
/// "svc.request" span or the solver's "rid" instant.
std::map<std::int64_t, PhaseTimes> read_phases(const revec::obs::TraceSink& sink);

/// Results of one pass over a workload's operation list.
struct PassResult {
    std::vector<double> op_ms;      ///< wall time of each operation
    std::vector<double> op_cpu_ms;  ///< process CPU time of each operation
    std::int64_t failed = 0;        ///< operations that failed or checked out wrong

    /// Deterministic counts and sums (makespans, code bytes, solver
    /// counters, cache outcomes). They must repeat exactly in every pass.
    std::map<std::string, double> exact;

    /// Traced passes only: layer attribution and per-class figures.
    Tracer layers;
    std::map<std::string, double> traced;
};

/// A workload's constructor generates its inputs from the seed; nothing in
/// it is timed.
class Workload {
public:
    virtual ~Workload() = default;
    /// Set-up as a user pays it before the first operation: build the
    /// system under test and run one fixed warm-up operation.
    virtual void setup() = 0;
    /// Run every operation of the workload once, with `probe.between_ops()`
    /// before each; `traced` turns on the layer spans and the library's
    /// phase trace.
    virtual PassResult run_pass(bool traced, HostProbe& probe) = 0;
};

std::unique_ptr<Workload> make_paper_prove(std::uint64_t seed);
std::unique_ptr<Workload> make_fast_compile(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_edits(std::uint64_t seed);

}  // namespace perfbench
