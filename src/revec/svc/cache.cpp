#include "revec/svc/cache.hpp"

#include <utility>

namespace revec::svc {

std::shared_ptr<const CacheEntry> ScheduleCache::find(std::string_view model_bytes) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_bytes_.find(model_bytes);
    return it == by_bytes_.end() ? nullptr : *it->second;
}

void ScheduleCache::touch(const std::shared_ptr<const CacheEntry>& entry) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_bytes_.find(entry->model_bytes);
    if (it != by_bytes_.end() && *it->second == entry) {
        lru_.splice(lru_.begin(), lru_, it->second);
    }
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

void ScheduleCache::unindex(List::iterator it) {
    by_bytes_.erase((*it)->model_bytes);
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
    if (const auto it = by_bytes_.find(published->model_bytes); it != by_bytes_.end()) {
        // Publish the fresh snapshot in place; readers holding the old one
        // keep a consistent view. Both index keys are redone: the byte key
        // is a view of the old snapshot's bytes, which may now be freed.
        const List::iterator pos = it->second;
        unindex(pos);
        *pos = std::move(published);
        by_bytes_.emplace((*pos)->model_bytes, pos);
        by_fingerprint_.emplace((*pos)->fingerprint, pos);
        lru_.splice(lru_.begin(), lru_, pos);
        return false;
    }
    lru_.push_front(std::move(published));
    by_bytes_.emplace(lru_.front()->model_bytes, lru_.begin());
    by_fingerprint_.emplace(lru_.front()->fingerprint, lru_.begin());
    bool evicted = false;
    while (lru_.size() > capacity_) {
        const auto victim = std::prev(lru_.end());
        unindex(victim);
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
