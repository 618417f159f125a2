#include "revec/svc/cache.hpp"

#include <utility>

namespace revec::svc {

std::shared_ptr<const CacheEntry> ScheduleCache::lookup(std::uint64_t hash,
                                                        std::string_view canonical) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_hash_.find(hash);
    if (it == by_hash_.end()) return nullptr;
    // Same 64-bit key but a different model: a genuine FNV collision.
    // Serving the stored schedule would be wrong, so treat it as a miss
    // (and leave the resident entry alone).
    if ((*it->second)->canonical != canonical) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
}

std::vector<std::shared_ptr<const CacheEntry>> ScheduleCache::lookup_near(
    std::uint64_t fingerprint) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::shared_ptr<const CacheEntry>> out;
    const auto range = by_fingerprint_.equal_range(fingerprint);
    for (auto it = range.first; it != range.second; ++it) {
        // Splicing keeps list iterators valid, so both indexes stay intact.
        lru_.splice(lru_.begin(), lru_, it->second);
        out.push_back(*it->second);
    }
    return out;
}

void ScheduleCache::unindex_fingerprint(List::iterator it) {
    const auto range = by_fingerprint_.equal_range((*it)->fingerprint);
    for (auto idx = range.first; idx != range.second; ++idx) {
        if (idx->second == it) {
            by_fingerprint_.erase(idx);
            return;
        }
    }
}

bool ScheduleCache::insert(CacheEntry entry) {
    if (capacity_ == 0) return false;
    auto published = std::make_shared<const CacheEntry>(std::move(entry));
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = by_hash_.find(published->hash); it != by_hash_.end()) {
        // Publish the fresh snapshot in place; readers holding the old one
        // keep a consistent view. A colliding model may carry another
        // fingerprint, so the fingerprint index is redone.
        unindex_fingerprint(it->second);
        *it->second = std::move(published);
        by_fingerprint_.emplace((*it->second)->fingerprint, it->second);
        lru_.splice(lru_.begin(), lru_, it->second);
        return false;
    }
    lru_.push_front(std::move(published));
    by_hash_.emplace(lru_.front()->hash, lru_.begin());
    by_fingerprint_.emplace(lru_.front()->fingerprint, lru_.begin());
    bool evicted = false;
    while (lru_.size() > capacity_) {
        const auto victim = std::prev(lru_.end());
        by_hash_.erase((*victim)->hash);
        unindex_fingerprint(victim);
        lru_.erase(victim);
        ++evictions_;
        evicted = true;
    }
    return evicted;
}

std::size_t ScheduleCache::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

std::int64_t ScheduleCache::evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

}  // namespace revec::svc
