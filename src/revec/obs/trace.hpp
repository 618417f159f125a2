// Structured solve tracing (DESIGN §5g). A TraceSink owns one ring-buffer
// track per worker thread; call sites push typed span/instant events into
// their track and the sink serializes everything after the solve — as
// Chrome trace-event JSON (load t.json into Perfetto / chrome://tracing to
// see per-worker timelines) or as a deterministic JSONL stream (one event
// per line, ordered by track then emission; the golden-trace tests diff
// it).
//
// Cost model: tracing is a runtime decision, not a compile-time one, and
// the disabled path must stay in the solver's hot loops. Every event site
// is a single branch on a nullptr buffer (`if (buf == nullptr) return;`);
// levels refine that — Phase events (solve phases, solutions, bound
// broadcasts, worker lifecycles) are rare, Node events (search nodes and
// failures) are per-node. Writers are lock-free on the
// hot path: each TraceBuffer has exactly one writer thread at a time, and
// the only synchronized operations are track registration on the sink and
// the (rare) append of a fresh storage chunk. When a ring fills, new
// events are dropped and counted (the serializers emit the drop count), so
// a runaway solve can never grow memory without bound.
//
// Live reads: events live in fixed-size chunks that never move once
// allocated, and the writer publishes the event count with a release
// store after filling the slot. Readers snapshot up to an acquire-loaded
// size, so the serializers can run while writers are still pushing — a
// running daemon can dump its trace mid-solve and at worst misses the
// newest few events.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "revec/support/stopwatch.hpp"

namespace revec::obs {

/// How much the sink records. Every event carries the level it belongs to;
/// a sink at Phase drops Node events at the push site.
enum class TraceLevel : std::uint8_t {
    Off = 0,    ///< record nothing
    Phase = 1,  ///< solve phases, solutions, bounds, worker lifecycles
    Node = 2,   ///< plus per-node search and failure events
};

const char* trace_level_name(TraceLevel level);

/// Parse "off" | "phase" | "node"; nullopt on anything else.
std::optional<TraceLevel> parse_trace_level(std::string_view s);

enum class EventKind : std::uint8_t {
    SpanBegin,  ///< "B" — a named interval opens on this track
    SpanEnd,    ///< "E" — the innermost open interval of that name closes
    Instant,    ///< "I" — a point event
};

/// One recorded event. `name`/`akey`/`bkey` must be pointers to
/// static-duration strings (string literals at every call site); events
/// never own memory, which keeps a push at ~one cache line of stores.
struct TraceEvent {
    EventKind kind = EventKind::Instant;
    const char* name = nullptr;
    const char* akey = nullptr;  ///< first payload key; nullptr = no payload
    const char* bkey = nullptr;  ///< second payload key; nullptr = absent
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t ts_us = 0;  ///< microseconds since the sink's epoch
};

class TraceSink;

/// One track: a bounded ring of events with a single writer thread at a
/// time. Obtain via TraceSink::main() or TraceSink::new_track(); never
/// shared between concurrently-writing threads (sequential hand-off
/// between threads is fine when an external happens-before edge — e.g. a
/// promise/future — orders the writes).
class TraceBuffer {
public:
    TraceBuffer(const TraceBuffer&) = delete;
    TraceBuffer& operator=(const TraceBuffer&) = delete;

    bool enabled(TraceLevel level) const {
        return static_cast<std::uint8_t>(level) <= static_cast<std::uint8_t>(level_);
    }

    void push(TraceLevel level, EventKind kind, const char* name,
              const char* akey = nullptr, std::int64_t a = 0, const char* bkey = nullptr,
              std::int64_t b = 0);

    const std::string& track() const { return track_; }
    std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
    std::size_t size() const { return size_.load(std::memory_order_acquire); }

    /// Copy of all events published so far. Safe to call while the writer
    /// thread is still pushing: events up to the acquire-loaded size are
    /// fully written, newer ones are simply not seen yet.
    std::vector<TraceEvent> snapshot() const;

private:
    friend class TraceSink;
    TraceBuffer(const TraceSink* sink, std::string track, TraceLevel level,
                std::size_t capacity);

    /// Events per storage chunk. Chunks never move or shrink once
    /// allocated, so a reader holding an index can copy the slot without
    /// blocking the writer.
    static constexpr std::size_t kChunk = 1024;

    const TraceSink* sink_;
    std::string track_;
    TraceLevel level_;
    std::size_t capacity_;
    std::atomic<std::size_t> size_{0};
    std::atomic<std::uint64_t> dropped_{0};
    TraceEvent* write_chunk_ = nullptr;  ///< writer-only cache of the tail chunk
    mutable std::mutex chunks_mu_;       ///< guards the chunk *vector*, not the slots
    std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
};

/// Owner of all tracks of one traced solve. Thread-safe for track
/// registration, and serialization may run while writers are active (it
/// snapshots each track up to its published size) — a long-lived daemon
/// can write periodic trace snapshots without pausing its workers.
class TraceSink {
public:
    explicit TraceSink(TraceLevel level, std::size_t events_per_track = 1u << 17);

    TraceLevel level() const { return level_; }

    /// The driver/caller thread's track (created on first use, always
    /// serialized first).
    TraceBuffer* main();

    /// Register a new track (e.g. one per portfolio worker). The returned
    /// buffer is stable for the sink's lifetime; register tracks before
    /// spawning their writer threads so track order — and with it the JSONL
    /// stream order — is deterministic.
    TraceBuffer* new_track(std::string name);

    /// Microseconds since the sink was constructed.
    std::int64_t now_us() const { return epoch_.elapsed_us(); }

    std::uint64_t total_dropped() const;
    std::size_t num_tracks() const;

    /// Chrome trace-event JSON (one pid, one tid per track, thread_name
    /// metadata) — loadable by Perfetto and chrome://tracing.
    void write_chrome_trace(std::ostream& os) const;

    /// Deterministic JSONL: one event object per line, tracks in
    /// registration order, events in emission order. Timestamps are the
    /// only nondeterministic field.
    void write_jsonl(std::ostream& os) const;

    /// Write to `path`; a ".jsonl" extension selects the JSONL stream,
    /// anything else the Chrome trace JSON. Throws revec::Error on I/O
    /// failure.
    void save(const std::string& path) const;

private:
    TraceLevel level_;
    std::size_t capacity_;
    Stopwatch epoch_;
    mutable std::mutex mu_;  ///< guards tracks_ registration only
    std::vector<std::unique_ptr<TraceBuffer>> tracks_;
};

// -- call-site helpers -------------------------------------------------------
// All tolerate buf == nullptr (tracing off) with a single branch.

inline void instant(TraceBuffer* buf, TraceLevel level, const char* name,
                    const char* akey = nullptr, std::int64_t a = 0,
                    const char* bkey = nullptr, std::int64_t b = 0) {
    if (buf == nullptr) return;
    buf->push(level, EventKind::Instant, name, akey, a, bkey, b);
}

inline void span_begin(TraceBuffer* buf, TraceLevel level, const char* name,
                       const char* akey = nullptr, std::int64_t a = 0,
                       const char* bkey = nullptr, std::int64_t b = 0) {
    if (buf == nullptr) return;
    buf->push(level, EventKind::SpanBegin, name, akey, a, bkey, b);
}

inline void span_end(TraceBuffer* buf, TraceLevel level, const char* name,
                     const char* akey = nullptr, std::int64_t a = 0,
                     const char* bkey = nullptr, std::int64_t b = 0) {
    if (buf == nullptr) return;
    buf->push(level, EventKind::SpanEnd, name, akey, a, bkey, b);
}

/// RAII span: begins on construction, ends on destruction. Payload set via
/// result() is attached to the end event (e.g. node counts of a finished
/// search phase).
class SpanScope {
public:
    SpanScope(TraceBuffer* buf, TraceLevel level, const char* name,
              const char* akey = nullptr, std::int64_t a = 0,
              const char* bkey = nullptr, std::int64_t b = 0)
        : buf_(buf != nullptr && buf->enabled(level) ? buf : nullptr),
          level_(level),
          name_(name) {
        if (buf_ != nullptr) {
            buf_->push(level_, EventKind::SpanBegin, name_, akey, a, bkey, b);
        }
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    ~SpanScope() {
        if (buf_ != nullptr) {
            buf_->push(level_, EventKind::SpanEnd, name_, akey_, a_, bkey_, b_);
        }
    }

    void result(const char* akey, std::int64_t a, const char* bkey = nullptr,
                std::int64_t b = 0) {
        akey_ = akey;
        a_ = a;
        bkey_ = bkey;
        b_ = b;
    }

private:
    TraceBuffer* buf_;
    TraceLevel level_;
    const char* name_;
    const char* akey_ = nullptr;
    const char* bkey_ = nullptr;
    std::int64_t a_ = 0;
    std::int64_t b_ = 0;
};

}  // namespace revec::obs
