// Content-addressed schedule cache (DESIGN §5i/§5k): one LRU of proven-
// optimal schedules, read two ways.
//
// Each entry is the exact model a schedule was proven optimal for, kept as
// the bytes it arrived in on the wire (for a request built in code, the
// bytes serialize_request would send) and as the KernelModel those bytes
// read as, under two keys: the bytes themselves for the exact lookup, and
// model::structural_fingerprint for donor candidates. The exact key is
// compared byte for byte, so two entries can only be confused when their
// models are the same text; model::canonical_hash is stored only to answer
// the response's `hash`. The service re-verifies every hit against the
// model with model::check_schedule before answering. Only Optimal results
// are inserted — a timeout- or deadline-shaped answer (SatTimeout,
// HeuristicFallback) would pin a worse-than-necessary schedule for every
// future requester of that model.
//
// Donor candidates are never served directly — the service diffs them
// against the request and adapts the nearest compatible one into a warm
// incumbent (heur::adapt_schedule) — so the fingerprint lookup needs no
// byte-exact guard; the verifier gates everything downstream.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "revec/model/kernel_model.hpp"

namespace revec::svc {

/// The cached payload: a verified optimal schedule of one exact model.
struct CachedSchedule {
    std::vector<int> start;
    std::vector<int> slot;
    int makespan = 0;
    int slots_used = 0;
};

/// One cached proof. Immutable once published: lookups hand out shared
/// snapshots that stay valid after the cache evicts or replaces them.
struct CacheEntry {
    std::string model_bytes;        ///< the key: the model's text as it arrived
    std::uint64_t model_hash = 0;   ///< model::canonical_hash(model), only reported
    std::uint64_t fingerprint = 0;  ///< model::structural_fingerprint(model)
    model::KernelModel model;       ///< what model_bytes read as
    CachedSchedule schedule;
};

class ScheduleCache {
public:
    /// `capacity` = max entries; 0 disables the cache entirely.
    explicit ScheduleCache(std::size_t capacity) : capacity_(capacity) {}

    /// Exact hit: the entry whose model_bytes equal `model_bytes`, else
    /// null. A pure read — recency moves only when the caller serves the
    /// entry (touch). Thread-safe.
    std::shared_ptr<const CacheEntry> find(std::string_view model_bytes) const;

    /// Mark `entry` as used: the most recently used, if it is still
    /// resident (an evicted or replaced snapshot is left alone).
    void touch(const std::shared_ptr<const CacheEntry>& entry);

    /// Every entry with this structural fingerprint, in no particular
    /// order (the service ranks them by ModelDelta distance). Returning
    /// them counts as a use: each one's recency is refreshed — every
    /// candidate took part in donor selection.
    std::vector<std::shared_ptr<const CacheEntry>> lookup_near(std::uint64_t fingerprint);

    /// Insert an entry, replacing any entry with the same model_bytes;
    /// evicts the least recently used entries beyond capacity. Returns true
    /// when an eviction happened.
    bool insert(CacheEntry entry);

    std::size_t size() const;
    std::int64_t evictions() const;

private:
    using List = std::list<std::shared_ptr<const CacheEntry>>;

    /// Drop `it` from both indexes.
    void unindex(List::iterator it);

    std::size_t capacity_;
    mutable std::mutex mu_;
    List lru_;  ///< front = most recently used
    /// Keyed by views of the resident entries' own model_bytes.
    std::unordered_map<std::string_view, List::iterator> by_bytes_;
    std::unordered_multimap<std::uint64_t, List::iterator> by_fingerprint_;
    std::int64_t evictions_ = 0;
};

}  // namespace revec::svc
