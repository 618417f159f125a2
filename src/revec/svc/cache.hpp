// Content-addressed schedule cache (DESIGN §5i/§5k): one LRU of proven-
// optimal schedules, read two ways.
//
// Each entry is the exact model a schedule was proven optimal for, kept as
// its canonical JSON and as the KernelModel, under two keys:
// model::canonical_hash for the exact lookup, and
// model::structural_fingerprint for donor candidates. The exact lookup
// also compares the canonical bytes, so a hash collision degrades to a
// miss instead of serving a wrong schedule; the service additionally
// re-verifies every hit against the requester's model with
// model::check_schedule before answering. Only Optimal results are
// inserted — a timeout- or deadline-shaped answer (SatTimeout,
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
    std::uint64_t hash = 0;         ///< model::canonical_hash(canonical)
    std::uint64_t fingerprint = 0;  ///< model::structural_fingerprint(model)
    std::string canonical;          ///< model::to_json(model)
    model::KernelModel model;
    CachedSchedule schedule;
};

class ScheduleCache {
public:
    /// `capacity` = max entries; 0 disables the cache entirely.
    explicit ScheduleCache(std::size_t capacity) : capacity_(capacity) {}

    /// Exact hit: same hash AND byte-identical canonical JSON, else null.
    /// Refreshes LRU recency. Thread-safe.
    std::shared_ptr<const CacheEntry> lookup(std::uint64_t hash, std::string_view canonical);

    /// Every entry with this structural fingerprint, in no particular
    /// order (the service ranks them by ModelDelta distance). Returning
    /// them counts as a use: each one's recency is refreshed — every
    /// candidate took part in donor selection.
    std::vector<std::shared_ptr<const CacheEntry>> lookup_near(std::uint64_t fingerprint);

    /// Insert an entry, replacing any entry with the same hash; evicts the
    /// least recently used entries beyond capacity. Returns true when an
    /// eviction happened.
    bool insert(CacheEntry entry);

    std::size_t size() const;
    std::int64_t evictions() const;

private:
    using List = std::list<std::shared_ptr<const CacheEntry>>;

    /// Drop `it` from the fingerprint index (the hash index is the caller's).
    void unindex_fingerprint(List::iterator it);

    std::size_t capacity_;
    mutable std::mutex mu_;
    List lru_;  ///< front = most recently used
    std::unordered_map<std::uint64_t, List::iterator> by_hash_;
    std::unordered_multimap<std::uint64_t, List::iterator> by_fingerprint_;
    std::int64_t evictions_ = 0;
};

}  // namespace revec::svc
