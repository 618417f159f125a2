// Literal LNS table: rounds, accepted repairs, incumbent trail and summed
// repair nodes/failures of improve_schedule over the LnsProperty corpus
// (same kernels and budgets as test_property.cpp) and over the
// conservative-rung MATMUL/QRD/ARF incumbents. The table was recorded
// while every repair round re-emitted the model with its frozen starts
// posted during emission; rounds now freeze by assignment on a clone of
// one base emission, and must walk exactly the same repair trees.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "lns_fixtures.hpp"
#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/lns/lns.hpp"

namespace revec::lns {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

struct Row {
    std::string name;
    int rounds = 0;
    int accepted = 0;
    std::vector<int> trail;
    std::int64_t nodes = 0;
    std::int64_t failures = 0;
};

bool operator==(const Row& a, const Row& b) {
    return a.name == b.name && a.rounds == b.rounds && a.accepted == b.accepted &&
           a.trail == b.trail && a.nodes == b.nodes && a.failures == b.failures;
}

/// The row as a literal of kTable, so a mismatch prints what to compare.
std::string literal(const Row& r) {
    std::ostringstream os;
    os << "{\"" << r.name << "\", " << r.rounds << ", " << r.accepted << ", {";
    for (std::size_t i = 0; i < r.trail.size(); ++i) os << (i ? ", " : "") << r.trail[i];
    os << "}, " << r.nodes << ", " << r.failures << "}";
    return os.str();
}

Row run(const std::string& name, const ir::Graph& g, const LnsOptions& opts) {
    const testing::Incumbent inc =
        testing::ladder_incumbent(kSpec, g, heur::ladder().size() - 1);
    EXPECT_TRUE(inc.ok) << name;
    const LnsResult r = improve_schedule(inc.km, inc.start, inc.slot, inc.makespan, opts);
    return {name, r.rounds, r.accepted, r.incumbent_trail, r.stats.nodes, r.stats.failures};
}

std::vector<Row> measure() {
    std::vector<Row> rows;
    for (unsigned seed = 1; seed <= 25; ++seed) {
        apps::RandomKernelOptions kopts;
        kopts.seed = seed;
        kopts.num_ops = 14 + static_cast<int>(seed % 5) * 3;
        LnsOptions opts;
        opts.seed = 0x1000u + seed;
        opts.max_rounds = 10;
        opts.tuning.repair_failures = 400;
        rows.push_back(run("corpus-" + std::to_string(seed),
                           ir::merge_pipeline_ops(apps::build_random_kernel(kopts)), opts));
    }
    LnsOptions opts;
    opts.seed = 0x77u;
    opts.max_rounds = 40;
    opts.tuning.repair_failures = 2000;
    rows.push_back(run("matmul", ir::merge_pipeline_ops(apps::build_matmul()), opts));
    rows.push_back(run("qrd", ir::merge_pipeline_ops(apps::build_qrd()), opts));
    rows.push_back(run("arf", ir::merge_pipeline_ops(apps::build_arf()), opts));
    return rows;
}

// Rounds stop once the incumbent reaches model::makespan_lower_bound
// (rows with 0 rounds start there; corpus-10, -21 and -25 stop right after
// the repair that reaches it). Every emission's makespan also starts at
// that bound, so repairs hit it sooner. Totals: 682 repair nodes, 518
// failures.
// clang-format off
const Row kTable[] = {
    {"corpus-1", 10, 1, {24}, 44, 32},
    {"corpus-2", 0, 0, {}, 0, 0},
    {"corpus-3", 0, 0, {}, 0, 0},
    {"corpus-4", 0, 0, {}, 0, 0},
    {"corpus-5", 0, 0, {}, 0, 0},
    {"corpus-6", 0, 0, {}, 0, 0},
    {"corpus-7", 0, 0, {}, 0, 0},
    {"corpus-8", 10, 0, {}, 18, 19},
    {"corpus-9", 0, 0, {}, 0, 0},
    {"corpus-10", 2, 1, {28}, 48, 26},
    {"corpus-11", 10, 0, {}, 6, 13},
    {"corpus-12", 0, 0, {}, 0, 0},
    {"corpus-13", 0, 0, {}, 0, 0},
    {"corpus-14", 10, 1, {30}, 72, 46},
    {"corpus-15", 0, 0, {}, 0, 0},
    {"corpus-16", 0, 0, {}, 0, 0},
    {"corpus-17", 0, 0, {}, 0, 0},
    {"corpus-18", 2, 2, {23, 22}, 108, 56},
    {"corpus-19", 0, 0, {}, 0, 0},
    {"corpus-20", 0, 0, {}, 0, 0},
    {"corpus-21", 1, 1, {23}, 42, 22},
    {"corpus-22", 10, 0, {}, 0, 10},
    {"corpus-23", 0, 0, {}, 0, 0},
    {"corpus-24", 0, 0, {}, 0, 0},
    {"corpus-25", 2, 1, {20}, 32, 18},
    {"matmul", 40, 4, {22, 16, 14, 13}, 144, 112},
    {"qrd", 40, 2, {149, 147}, 168, 124},
    {"arf", 40, 0, {}, 0, 40},
};
// clang-format on

TEST(LnsGolden, RoundsTrailsAndRepairTreesMatchTheRecording) {
    const std::vector<Row> got = measure();
    ASSERT_EQ(got.size(), std::size(kTable));
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i] == kTable[i]) << "want " << literal(kTable[i]) << "\n got  "
                                         << literal(got[i]);
    }
}

}  // namespace
}  // namespace revec::lns
