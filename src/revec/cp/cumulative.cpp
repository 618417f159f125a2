#include "revec/cp/cumulative.hpp"

#include <algorithm>
#include <utility>
#include <vector>
#include <memory>
#include <sstream>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

/// Time-table propagation: build the profile of compulsory parts
/// (the interval [max(start), min(start)+duration) each task must occupy),
/// fail if it exceeds capacity, and prune start times that would push any
/// task over capacity against the profile of the *other* tasks.
class Cumulative final : public Propagator {
public:
    static int dur_min(const Store& s, const CumulTask& t) {
        return t.dur_var.valid() ? s.min(t.dur_var) : t.duration;
    }

    Cumulative(std::vector<CumulTask> tasks, int capacity)
        : tasks_(std::move(tasks)), cap_(capacity) {
        REVEC_EXPECTS(cap_ >= 0);
        for (const CumulTask& t : tasks_) {
            REVEC_EXPECTS(t.dur_var.valid() || t.duration > 0);
            REVEC_EXPECTS(t.demand >= 0);
        }
    }

    bool propagate(Store& s) override {
        // Profile as a difference list over event points: +demand at
        // cp_begin, -demand at cp_end of each compulsory part. Sorted member
        // scratch instead of a per-run std::map: this propagator executes
        // millions of times per search, so per-run allocation dominates.
        events_.clear();
        for (const CumulTask& t : tasks_) {
            if (t.demand == 0) continue;
            const int cp_begin = s.max(t.start);
            const int cp_end = s.min(t.start) + dur_min(s, t);
            if (cp_begin < cp_end) {
                events_.push_back({cp_begin, t.demand});
                events_.push_back({cp_end, -t.demand});
            }
        }
        std::sort(events_.begin(), events_.end());

        // Materialize as step segments [from, to) -> height, summing all
        // deltas at one event point before the capacity check (the same
        // merge a difference map would perform).
        profile_.clear();
        int height = 0;
        int prev = 0;
        bool open = false;
        for (std::size_t k = 0; k < events_.size();) {
            const int at = events_[k].first;
            int d = 0;
            for (; k < events_.size() && events_[k].first == at; ++k) {
                d += events_[k].second;
            }
            if (open && height > 0 && prev < at) profile_.push_back({prev, at, height});
            height += d;
            if (height > cap_) return false;
            prev = at;
            open = true;
        }

        if (profile_.empty()) return true;

        // Prune: for each task and each profile segment that together with
        // the task's demand would exceed capacity, forbid start times that
        // overlap the segment — unless the overlap is (part of) the task's
        // own compulsory part.
        for (const CumulTask& t : tasks_) {
            if (t.demand == 0) continue;
            const int d_min = dur_min(s, t);
            if (d_min == 0) continue;  // a possibly-empty task occupies nothing
            // A fixed start could only lose its value to a segment inside
            // its own compulsory part, whose height already passed the
            // capacity check above.
            if (s.fixed(t.start)) continue;
            const int start_min = s.min(t.start);
            const int own_begin = s.max(t.start);
            const int own_end = start_min + d_min;
            const bool has_cp = own_begin < own_end;
            // Only segments that meet [min start, max start + d_min) can
            // remove a start value; segments are sorted and disjoint.
            const auto ends_before = [start_min](const Segment& g) { return g.to <= start_min; };
            auto seg = std::partition_point(profile_.begin(), profile_.end(), ends_before);
            for (; seg != profile_.end() && seg->from < own_begin + d_min; ++seg) {
                // Contribution of this task's own compulsory part to `seg`:
                // the profile is built from *all* tasks, so subtract self
                // where the segment lies inside the own compulsory part.
                int seg_height = seg->height;
                if (has_cp && seg->from >= own_begin && seg->to <= own_end) {
                    seg_height -= t.demand;
                }
                if (seg_height + t.demand <= cap_) continue;
                // Starts in [seg.from - d_min + 1, seg.to - 1] overlap seg for
                // every duration >= d_min.
                if (!s.remove_range(t.start, seg->from - d_min + 1, seg->to - 1)) {
                    return false;
                }
            }
        }
        return true;
    }

    Priority priority() const override { return Priority::Global; }

    const char* class_name() const override { return "Cumulative"; }

    std::string describe() const override {
        std::ostringstream os;
        os << "cumulative(" << tasks_.size() << " tasks, cap=" << cap_ << ")";
        return os.str();
    }

private:
    struct Segment {
        int from;
        int to;
        int height;
    };

    std::vector<CumulTask> tasks_;
    int cap_;
    std::vector<std::pair<int, int>> events_;  ///< per-run scratch: (time, ±demand)
    std::vector<Segment> profile_;             ///< per-run scratch
};

}  // namespace

void post_cumulative(Store& store, std::vector<CumulTask> tasks, int capacity) {
    // Time-table reasoning reads start bounds and the duration minimum;
    // interior holes in a start domain never move a compulsory part.
    std::vector<Watch> watches;
    watches.reserve(tasks.size() * 2);
    for (const CumulTask& t : tasks) {
        watches.push_back({t.start, kEventBounds});
        if (t.dur_var.valid()) watches.push_back({t.dur_var, kEventMin});
    }
    store.post(std::make_unique<Cumulative>(std::move(tasks), capacity), watches);
}

}  // namespace revec::cp
