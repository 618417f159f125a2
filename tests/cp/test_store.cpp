#include "revec/cp/store.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "revec/support/assert.hpp"

namespace revec::cp {
namespace {

TEST(Store, NewVarHasRequestedDomain) {
    Store s;
    const IntVar x = s.new_var(3, 9, "x");
    EXPECT_EQ(s.min(x), 3);
    EXPECT_EQ(s.max(x), 9);
    EXPECT_FALSE(s.fixed(x));
    EXPECT_EQ(s.name(x), "x");
}

TEST(Store, AnonymousVarsGetNames) {
    Store s;
    const IntVar x = s.new_var(0, 1);
    EXPECT_FALSE(s.name(x).empty());
}

TEST(Store, BoolVarIsZeroOne) {
    Store s;
    const BoolVar b = s.new_bool("b");
    EXPECT_EQ(s.min(b), 0);
    EXPECT_EQ(s.max(b), 1);
}

TEST(Store, ModificationsApply) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    EXPECT_TRUE(s.set_min(x, 2));
    EXPECT_TRUE(s.set_max(x, 8));
    EXPECT_TRUE(s.remove(x, 5));
    EXPECT_TRUE(s.remove_range(x, 6, 7));
    EXPECT_EQ(s.dom(x).to_string(), "{2..4, 8}");
    EXPECT_TRUE(s.assign(x, 3));
    EXPECT_TRUE(s.fixed(x));
    EXPECT_EQ(s.value(x), 3);
}

TEST(Store, WipeoutFails) {
    Store s;
    const IntVar x = s.new_var(0, 3);
    EXPECT_FALSE(s.set_min(x, 7));
    EXPECT_TRUE(s.failed());
}

TEST(Store, AssignOutsideDomainFails) {
    Store s;
    const IntVar x = s.new_var(0, 3);
    EXPECT_FALSE(s.assign(x, 9));
    EXPECT_TRUE(s.failed());
}

TEST(Store, FailureIsSticky) {
    Store s;
    const IntVar x = s.new_var(0, 3);
    const IntVar y = s.new_var(0, 3);
    EXPECT_FALSE(s.set_min(x, 7));
    // Further modifications are rejected while failed.
    EXPECT_FALSE(s.set_min(y, 1));
    EXPECT_EQ(s.min(y), 0);
}

TEST(Store, BacktrackingRestoresDomains) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    const IntVar y = s.new_var(0, 10);

    s.push_level();
    EXPECT_TRUE(s.set_min(x, 5));
    EXPECT_TRUE(s.remove(y, 3));
    s.push_level();
    EXPECT_TRUE(s.assign(x, 7));
    EXPECT_TRUE(s.set_max(y, 6));

    s.pop_level();
    EXPECT_EQ(s.min(x), 5);
    EXPECT_EQ(s.max(x), 10);
    EXPECT_EQ(s.max(y), 10);
    EXPECT_FALSE(s.dom(y).contains(3));

    s.pop_level();
    EXPECT_EQ(s.min(x), 0);
    EXPECT_TRUE(s.dom(y).contains(3));
    EXPECT_EQ(s.level(), 0);
}

TEST(Store, BacktrackingClearsFailure) {
    Store s;
    const IntVar x = s.new_var(0, 3);
    s.push_level();
    EXPECT_FALSE(s.set_min(x, 9));
    EXPECT_TRUE(s.failed());
    s.pop_level();
    EXPECT_FALSE(s.failed());
    EXPECT_EQ(s.max(x), 3);
}

TEST(Store, RootLevelChangesSurviveBacktracking) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    EXPECT_TRUE(s.set_max(x, 7));  // at root
    s.push_level();
    EXPECT_TRUE(s.set_max(x, 4));
    s.pop_level();
    EXPECT_EQ(s.max(x), 7);
}

TEST(Store, MultipleSavesPerLevelRestoreOldest) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    s.push_level();
    EXPECT_TRUE(s.set_min(x, 2));
    EXPECT_TRUE(s.set_min(x, 4));
    EXPECT_TRUE(s.set_min(x, 6));
    s.pop_level();
    EXPECT_EQ(s.min(x), 0);
}

// A propagator that records how many times it ran and enforces x <= y.
class LeqRecorder final : public Propagator {
public:
    LeqRecorder(IntVar x, IntVar y, int& runs) : x_(x), y_(y), runs_(runs) {}
    bool propagate(Store& s) override {
        ++runs_;
        if (!s.set_max(x_, s.max(y_))) return false;
        return s.set_min(y_, s.min(x_));
    }
    std::string describe() const override { return "leq_recorder"; }

private:
    IntVar x_;
    IntVar y_;
    int& runs_;
};

TEST(Store, PostSchedulesAndPropagates) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    const IntVar y = s.new_var(0, 4);
    int runs = 0;
    s.post(std::make_unique<LeqRecorder>(x, y, runs), {x, y});
    EXPECT_TRUE(s.propagate());
    EXPECT_GE(runs, 1);
    EXPECT_EQ(s.max(x), 4);
}

TEST(Store, PropagatorRunsAgainOnChange) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    const IntVar y = s.new_var(0, 10);
    int runs = 0;
    s.post(std::make_unique<LeqRecorder>(x, y, runs), {x, y});
    ASSERT_TRUE(s.propagate());
    const int runs_before = runs;
    ASSERT_TRUE(s.set_max(y, 6));
    ASSERT_TRUE(s.propagate());
    EXPECT_GT(runs, runs_before);
    EXPECT_EQ(s.max(x), 6);
}

TEST(Store, FailedPropagationReportsFalse) {
    Store s;
    const IntVar x = s.new_var(5, 10);
    const IntVar y = s.new_var(0, 2);
    int runs = 0;
    s.post(std::make_unique<LeqRecorder>(x, y, runs), {x, y});
    EXPECT_FALSE(s.propagate());
    EXPECT_TRUE(s.failed());
}

TEST(Store, PopLevelClearsQueue) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    const IntVar y = s.new_var(0, 10);
    int runs = 0;
    s.post(std::make_unique<LeqRecorder>(x, y, runs), {x, y});
    ASSERT_TRUE(s.propagate());
    s.push_level();
    ASSERT_TRUE(s.set_max(y, 3));  // schedules the propagator
    s.pop_level();                 // must clear the queue
    const int runs_before = runs;
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(runs, runs_before);  // nothing left to run
}

TEST(Store, StatsAccumulate) {
    Store s;
    const IntVar x = s.new_var(0, 10);
    ASSERT_TRUE(s.set_min(x, 1));
    ASSERT_TRUE(s.set_min(x, 2));
    EXPECT_GE(s.stats().domain_changes, 2);
}

TEST(Store, DumpListsVariables) {
    Store s;
    s.new_var(1, 2, "alpha");
    s.new_var(3, 4, "beta");
    const std::string d = s.dump();
    EXPECT_NE(d.find("alpha :: {1..2}"), std::string::npos);
    EXPECT_NE(d.find("beta :: {3..4}"), std::string::npos);
}

TEST(Store, InvalidVarRejected) {
    Store s;
    EXPECT_THROW(s.min(IntVar()), ContractViolation);
    EXPECT_THROW(s.min(IntVar(99)), ContractViolation);
}

TEST(Store, BoundQueriesOnFailedVarThrow) {
    Store s;
    const IntVar x = s.new_var(0, 3);
    s.push_level();
    EXPECT_FALSE(s.set_min(x, 9));  // wipeout
    EXPECT_TRUE(s.failed());
    // The SoA bounds of an empty domain are stale; reading them is the
    // same misuse Domain::min()/max() always rejected.
    EXPECT_THROW(s.min(x), ContractViolation);
    EXPECT_THROW(s.max(x), ContractViolation);
    EXPECT_THROW(s.value(x), ContractViolation);
    s.pop_level();
    EXPECT_EQ(s.min(x), 0);
    EXPECT_EQ(s.max(x), 3);
}

// Regression: pure bound clips of a holed domain are trailed as compact
// Min/Max records that restore by writing the surviving end interval; a
// later hole-structure rebuild at the same level is snapshot-trailed, and
// the snapshot must unwind (LIFO) before the clip records replay.
TEST(Store, WideHoledDomainClipIntoPackedBudgetRestores) {
    Store s;
    const IntVar x = s.new_var(0, 7000);
    ASSERT_TRUE(s.remove_range(x, 6001, 6499));  // root: {0..6000, 6500..7000}
    const Domain root = s.dom(x);
    ASSERT_EQ(s.size(x), 6502);

    s.push_level();
    // Pure lower clip (first interval survives): span shrinks to 3001.
    ASSERT_TRUE(s.set_min(x, 4000));
    EXPECT_EQ(s.min(x), 4000);
    EXPECT_EQ(s.size(x), 2502);
    // Pure upper clip at the same level: a second compact record.
    ASSERT_TRUE(s.set_max(x, 6900));
    // Hole-structure rebuild: snapshot-trailed.
    ASSERT_TRUE(s.remove_range(x, 5000, 5010));
    EXPECT_EQ(s.size(x), 2391);
    EXPECT_EQ(s.stats().trail_saves, 3);
    EXPECT_EQ(s.stats().trail_snapshots, 1);

    s.pop_level();  // snapshot, then Max, then Min replay
    EXPECT_TRUE(s.dom(x) == root);
    EXPECT_EQ(s.min(x), 0);
    EXPECT_EQ(s.max(x), 7000);
    EXPECT_EQ(s.size(x), 6502);
}

// A propagator that prunes nothing: each run takes well under a
// microsecond, so per-run truncation to whole microseconds would report no
// time at all however often it ran.
class Noop final : public Propagator {
public:
    bool propagate(Store&) override { return true; }
    std::string describe() const override { return "noop"; }
    const char* class_name() const override { return "Noop"; }
};

TEST(Store, ProfileCountsSubMicrosecondRuns) {
    Store s;
    s.enable_profiling();
    const IntVar x = s.new_var(0, 1);
    s.post(std::make_unique<Noop>(), {x});
    ASSERT_TRUE(s.propagate());
    for (int i = 0; i < 10000; ++i) {
        s.push_level();
        ASSERT_TRUE(s.set_min(x, 1));
        ASSERT_TRUE(s.propagate());
        s.pop_level();
    }
    const std::vector<PropProfile> prof = s.profile_by_class();
    ASSERT_EQ(prof.size(), 1u);
    EXPECT_STREQ(prof[0].cls, "Noop");
    EXPECT_EQ(prof[0].runs, 10001);
    EXPECT_GT(prof[0].time_us, 0);
}

/// Records every advice it receives.
class AdviceLog final : public Propagator {
public:
    explicit AdviceLog(std::vector<std::pair<int, EventMask>>& log) : log_(log) {}
    bool propagate(Store&) override { return true; }
    std::string describe() const override { return "advice log"; }
    bool advised() const override { return true; }
    void advise(int watch, EventMask fired) override { log_.push_back({watch, fired}); }

private:
    std::vector<std::pair<int, EventMask>>& log_;
};

TEST(Store, AdviceNamesTheWatchThatFired) {
    Store s;
    const IntVar x = s.new_var(0, 5);
    const IntVar y = s.new_var(0, 5);
    std::vector<std::pair<int, EventMask>> log;
    s.post(std::make_unique<AdviceLog>(log), {Watch{x, kEventFixed}, Watch{y, kEventBounds}});
    ASSERT_TRUE(s.propagate());
    EXPECT_TRUE(log.empty());  // posting schedules, but nothing changed

    ASSERT_TRUE(s.remove(y, 3));  // a hole: outside y's mask
    ASSERT_TRUE(s.set_min(x, 2));  // a bound: outside x's mask
    EXPECT_TRUE(log.empty());
    ASSERT_TRUE(s.set_max(y, 4));
    ASSERT_TRUE(s.assign(x, 2));
    const std::vector<std::pair<int, EventMask>> want = {
        {1, kEventMax | kEventDomain},
        {0, kEventMax | kEventFixed | kEventDomain},
    };
    EXPECT_EQ(log, want);

    // Restoring domains on backtracking sends no advice.
    log.clear();
    s.push_level();
    ASSERT_TRUE(s.set_min(y, 1));
    s.pop_level();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].first, 1);
}

}  // namespace
}  // namespace revec::cp
