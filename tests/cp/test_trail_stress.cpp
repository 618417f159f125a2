// Trail stress test: deeply nested push/pop with randomized mixed
// mutations (bound clips, hole punches, assignments) must restore every
// domain bit-exactly at every level. The oracle is independent of the
// trail: a deep copy of every domain taken when each level is opened.
// Narrow domains pack, so the main walk exercises the word-diff trail; the
// wide-span walk keeps holed domains beyond the packed budget, which is
// the only way to reach the interval Min/Max/Snapshot records.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "revec/cp/store.hpp"

namespace revec::cp {
namespace {

constexpr int kNumVars = 8;
constexpr int kLo = -30;
constexpr int kHi = 30;

/// Deep-copied domains of every variable (the per-level checkpoint).
std::vector<Domain> snapshot(const Store& s) {
    std::vector<Domain> out;
    out.reserve(s.num_vars());
    for (std::size_t i = 0; i < s.num_vars(); ++i) {
        out.push_back(s.dom(IntVar(static_cast<std::int32_t>(i))));
    }
    return out;
}

void expect_equal(const Store& s, const std::vector<Domain>& want, unsigned seed) {
    ASSERT_EQ(s.num_vars(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const Domain& got = s.dom(IntVar(static_cast<std::int32_t>(i)));
        ASSERT_TRUE(got == want[i])
            << "seed " << seed << " var " << i << ": got " << got.to_string() << ", want "
            << want[i].to_string();
    }
}

/// Pop `levels` levels, checking each restore against its checkpoint.
void unwind(Store& s, std::vector<std::vector<Domain>>& checkpoints, int levels,
            unsigned seed) {
    for (int k = 0; k < levels; ++k) {
        s.pop_level();
        expect_equal(s, checkpoints.back(), seed);
        checkpoints.pop_back();
    }
}

class TrailStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(TrailStress, BitExactRestoreAcrossEngines) {
    const unsigned seed = GetParam();
    std::mt19937 rng(seed);
    const auto pick = [&](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
    };

    Store s;
    std::vector<IntVar> xs;
    for (int i = 0; i < kNumVars; ++i) {
        if (rng() % 2 == 0) {
            const int lo = pick(kLo, kHi);
            const int hi = pick(lo, kHi);
            xs.push_back(s.new_var(lo, hi));
        } else {
            std::vector<int> values;
            const int n = pick(1, 20);
            for (int k = 0; k < n; ++k) values.push_back(pick(kLo, kHi));
            xs.push_back(s.new_var(Domain::of_values(values)));
        }
    }

    // checkpoints[d] is the full domain state when level d was opened.
    std::vector<std::vector<Domain>> checkpoints;

    for (int step = 0; step < 300; ++step) {
        const unsigned action = rng() % 10;
        const int depth = static_cast<int>(checkpoints.size());
        if (action < 4 && depth < 40) {  // push
            checkpoints.push_back(snapshot(s));
            s.push_level();
        } else if (action < 6 && depth > 0) {  // pop (sometimes several)
            unwind(s, checkpoints, pick(1, depth), seed);
        } else {  // mutate
            const IntVar x = xs[static_cast<std::size_t>(pick(0, kNumVars - 1))];
            if (s.dom(x).empty()) continue;  // a failed mutation emptied it
            bool ok = true;
            switch (rng() % 5) {
                case 0:
                    ok = s.set_min(x, pick(kLo - 1, kHi + 1));
                    break;
                case 1:
                    ok = s.set_max(x, pick(kLo - 1, kHi + 1));
                    break;
                case 2:
                    ok = s.remove(x, pick(kLo, kHi));
                    break;
                case 3: {
                    const int lo = pick(kLo, kHi);
                    ok = s.remove_range(x, lo, pick(lo, kHi));
                    break;
                }
                default: {
                    const Domain& d = s.dom(x);
                    const int v = pick(d.min(), d.max());
                    if (!d.contains(v)) continue;
                    ok = s.assign(x, v);
                    break;
                }
            }
            if (!ok) {
                // A failure poisons the store until the level unwinds; pop
                // everything and verify the full restore, then stop.
                unwind(s, checkpoints, depth, seed);
                return;
            }
        }
    }

    // Unwind whatever is left.
    unwind(s, checkpoints, static_cast<int>(checkpoints.size()), seed);
}

INSTANTIATE_TEST_SUITE_P(RandomWalks, TrailStress, ::testing::Range(0u, 80u));

// Holed domains whose span exceeds the packed budget (64 x 64 values) stay
// interval-represented, so their mutations trail Bounds, Min/Max clip and
// Snapshot records. The walk keeps every span above the budget (clips
// stay within 2000 of each end of a 16001-value range), so no domain ever
// packs, and checks every restore against the checkpoints.
TEST(TrailStress, WideSpanWalkRestoresIntervalRecords) {
    constexpr int kWide = 8000;
    constexpr int kClip = 2000;
    std::int64_t snapshots = 0;
    for (unsigned seed = 0; seed < 20; ++seed) {
        std::mt19937 rng(seed);
        const auto pick = [&](int lo, int hi) {
            return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
        };

        Store s;
        std::vector<IntVar> xs;
        for (int i = 0; i < kNumVars; ++i) {
            xs.push_back(s.new_var(-kWide, kWide));
            // Root-level holes are permanent and need no trail.
            for (int h = pick(0, 3); h > 0; --h) {
                const int lo = pick(-kWide + kClip + 1, kWide - kClip - 100);
                ASSERT_TRUE(s.remove_range(xs.back(), lo, lo + pick(0, 50)));
            }
        }

        std::vector<std::vector<Domain>> checkpoints;
        for (int step = 0; step < 300; ++step) {
            const unsigned action = rng() % 10;
            const int depth = static_cast<int>(checkpoints.size());
            if (action < 4 && depth < 40) {
                checkpoints.push_back(snapshot(s));
                s.push_level();
            } else if (action < 6 && depth > 0) {
                unwind(s, checkpoints, pick(1, depth), seed);
            } else {
                const IntVar x = xs[static_cast<std::size_t>(pick(0, kNumVars - 1))];
                if (s.fixed(x)) continue;
                bool ok = true;
                switch (rng() % 10) {
                    case 0:
                    case 1:
                        ok = s.set_min(x, pick(-kWide, -kWide + kClip));
                        break;
                    case 2:
                    case 3:
                        ok = s.set_max(x, pick(kWide - kClip, kWide));
                        break;
                    case 4:
                    case 5:
                        ok = s.remove(x, pick(-kWide, kWide));
                        break;
                    case 6:
                    case 7:
                    case 8: {
                        const int lo = pick(-kWide, kWide);
                        ok = s.remove_range(x, lo, lo + pick(0, 50));
                        break;
                    }
                    default: {
                        const int v = pick(s.min(x), s.max(x));
                        if (!s.dom(x).contains(v)) continue;
                        ok = s.assign(x, v);
                        break;
                    }
                }
                ASSERT_TRUE(ok) << "seed " << seed << " step " << step;
            }
        }
        unwind(s, checkpoints, static_cast<int>(checkpoints.size()), seed);
        EXPECT_EQ(s.stats().packed_converts, 0) << "seed " << seed;
        snapshots += s.stats().trail_snapshots;
    }
    EXPECT_GT(snapshots, 0);
}

// Pure bound tightening (the search's dominant case) trails one 12-byte
// Bounds record per level and never a snapshot.
TEST(TrailStress, DeltaTrailAvoidsSnapshotsOnBoundClips) {
    Store delta;
    const IntVar a = delta.new_var(0, 1000);

    for (int lvl = 0; lvl < 50; ++lvl) {
        delta.push_level();
        ASSERT_TRUE(delta.set_min(a, 2 * lvl + 1));
        ASSERT_TRUE(delta.set_max(a, 1000 - 2 * lvl));
    }
    EXPECT_EQ(delta.stats().trail_snapshots, 0);
    EXPECT_EQ(delta.stats().trail_bytes, 600);

    for (int lvl = 0; lvl < 50; ++lvl) delta.pop_level();
    EXPECT_EQ(delta.min(a), 0);
    EXPECT_EQ(delta.max(a), 1000);
    EXPECT_TRUE(delta.dom(a) == Domain(0, 1000));
}

}  // namespace
}  // namespace revec::cp
