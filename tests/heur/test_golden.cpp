// Golden: the heuristic-only answer of schedule_model (list ladder + slot
// allocator + checker) over fixed random-kernel sets, pinned as one 64-bit
// FNV-1a digest per set. The digests were recorded from the map-based
// reservation tables and the per-slot conflict rescan; a rewrite of the
// heuristic layer or the checker must reproduce every schedule bit for bit,
// failures included.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/sched/model.hpp"

namespace revec::heur {
namespace {

struct Digest {
    std::uint64_t h = 14695981039346656037ull;

    void word(int x) {
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (static_cast<std::uint32_t>(x) >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

/// Digest of (feasible, makespan, start, slot) of the heuristic-only
/// schedule of every kernel built from `base` with seeds [first, last].
std::uint64_t ladder_digest(apps::RandomKernelOptions base, unsigned first, unsigned last) {
    Digest d;
    for (unsigned seed = first; seed <= last; ++seed) {
        base.seed = seed;
        const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(base));
        sched::ScheduleOptions opts;
        opts.heuristic_only = true;
        const sched::Schedule s =
            sched::schedule_model(sched::lower_for_schedule(g, opts), opts);
        d.word(s.feasible() ? 1 : 0);
        d.word(s.makespan);
        for (const int x : s.start) d.word(x);
        for (const int x : s.slot) d.word(x);
    }
    return d.h;
}

TEST(HeuristicGolden, VectorOnly25Ops) {
    EXPECT_EQ(ladder_digest({1, 25, false, true}, 1, 300), 0xfad7f3e0611a3497ull);
}

TEST(HeuristicGolden, WithMatrix30Ops) {
    EXPECT_EQ(ladder_digest({1, 30, true, true}, 1, 100), 0x56b9b114376a35a2ull);
}

}  // namespace
}  // namespace revec::heur
