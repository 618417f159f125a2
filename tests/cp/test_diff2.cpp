#include "revec/cp/diff2.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "revec/cp/search.hpp"

namespace revec::cp {
namespace {

// Helper to build a rect with constant geometry.
Rect fixed_rect(Store& s, int x, int y, int w, int h) {
    return Rect{s.new_var(x, x), s.new_var(y, y), s.new_var(w, w), h};
}

TEST(Diff2, DetectsFixedOverlap) {
    Store s;
    std::vector<Rect> rects;
    rects.push_back(fixed_rect(s, 0, 0, 3, 2));
    rects.push_back(fixed_rect(s, 2, 1, 3, 2));  // overlaps in both dims
    post_diff2(s, rects);
    EXPECT_FALSE(s.propagate());
}

TEST(Diff2, AcceptsTouchingRectangles) {
    Store s;
    std::vector<Rect> rects;
    rects.push_back(fixed_rect(s, 0, 0, 3, 2));
    rects.push_back(fixed_rect(s, 3, 0, 3, 2));  // starts exactly where first ends
    post_diff2(s, rects);
    EXPECT_TRUE(s.propagate());
}

TEST(Diff2, AcceptsSeparationInOneDimension) {
    Store s;
    std::vector<Rect> rects;
    rects.push_back(fixed_rect(s, 0, 0, 10, 1));
    rects.push_back(fixed_rect(s, 0, 1, 10, 1));  // same x-extent, different row
    post_diff2(s, rects);
    EXPECT_TRUE(s.propagate());
}

TEST(Diff2, ZeroWidthNeverOverlaps) {
    Store s;
    std::vector<Rect> rects;
    rects.push_back(fixed_rect(s, 0, 0, 0, 1));  // zero lifetime
    rects.push_back(fixed_rect(s, 0, 0, 5, 1));
    post_diff2(s, rects);
    EXPECT_TRUE(s.propagate());
}

TEST(Diff2, ForcedRelationPrunes) {
    Store s;
    // Big fixed rect occupies rows 0..3 and columns 0..9; the second rect
    // (1x1) pinned to row 2 must end up right of it.
    std::vector<Rect> rects;
    rects.push_back(fixed_rect(s, 0, 0, 10, 4));
    const Rect small{s.new_var(0, 20), s.new_var(2, 2), s.new_var(1, 1), 1};
    rects.push_back(small);
    post_diff2(s, rects);
    ASSERT_TRUE(s.propagate());
    EXPECT_GE(s.min(small.x), 10);
}

TEST(Diff2, NoFeasibleRelationFails) {
    Store s;
    std::vector<Rect> rects;
    rects.push_back(fixed_rect(s, 0, 0, 10, 4));
    // 1x1 rect confined inside the big one.
    rects.push_back(Rect{s.new_var(3, 6), s.new_var(1, 2), s.new_var(1, 1), 1});
    post_diff2(s, rects);
    EXPECT_FALSE(s.propagate());
}

TEST(Diff2, MemoryAllocationUseCase) {
    // Three data nodes with fixed birth times and lifetimes compete for two
    // slots (rows). Lifetimes [0,4), [0,4), [4,8): first two must take
    // different slots, third can reuse either.
    Store s;
    const IntVar slot_a = s.new_var(0, 1);
    const IntVar slot_b = s.new_var(0, 1);
    const IntVar slot_c = s.new_var(0, 1);
    std::vector<Rect> rects;
    rects.push_back(Rect{s.new_var(0, 0), slot_a, s.new_var(4, 4), 1});
    rects.push_back(Rect{s.new_var(0, 0), slot_b, s.new_var(4, 4), 1});
    rects.push_back(Rect{s.new_var(4, 4), slot_c, s.new_var(4, 4), 1});
    post_diff2(s, rects);

    const SolveResult r = satisfy(
        s, {Phase{{slot_a, slot_b, slot_c}, VarSelect::InputOrder, ValSelect::Min, "slots"}});
    ASSERT_EQ(r.status, SolveStatus::Optimal);
    EXPECT_NE(r.value_of(slot_a), r.value_of(slot_b));
}

TEST(Diff2, InsufficientSlotsUnsat) {
    // Two live-overlapping data nodes, one slot: unsatisfiable.
    Store s;
    const IntVar slot_a = s.new_var(0, 0);
    const IntVar slot_b = s.new_var(0, 0);
    std::vector<Rect> rects;
    rects.push_back(Rect{s.new_var(0, 0), slot_a, s.new_var(4, 4), 1});
    rects.push_back(Rect{s.new_var(2, 2), slot_b, s.new_var(4, 4), 1});
    post_diff2(s, rects);
    const SolveResult r = satisfy(
        s, {Phase{{slot_a, slot_b}, VarSelect::InputOrder, ValSelect::Min, "slots"}});
    EXPECT_EQ(r.status, SolveStatus::Unsat);
}

// Property: for fully fixed rectangle pairs, Diff2 acceptance matches the
// geometric overlap predicate exactly.
TEST(Diff2Property, FixedPairsMatchGeometry) {
    for (int x1 = 0; x1 < 4; ++x1) {
        for (int y1 = 0; y1 < 3; ++y1) {
            for (int w1 = 1; w1 <= 2; ++w1) {
                for (int x2 = 0; x2 < 4; ++x2) {
                    for (int y2 = 0; y2 < 3; ++y2) {
                        for (int w2 = 1; w2 <= 2; ++w2) {
                            Store s;
                            std::vector<Rect> rects;
                            rects.push_back(fixed_rect(s, x1, y1, w1, 1));
                            rects.push_back(fixed_rect(s, x2, y2, w2, 1));
                            post_diff2(s, rects);
                            const bool overlap_x = x1 < x2 + w2 && x2 < x1 + w1;
                            const bool overlap_y = y1 < y2 + 1 && y2 < y1 + 1;
                            EXPECT_EQ(s.propagate(), !(overlap_x && overlap_y))
                                << x1 << ',' << y1 << ',' << w1 << " vs " << x2 << ',' << y2
                                << ',' << w2;
                        }
                    }
                }
            }
        }
    }
}

TEST(Diff2, SharedLengthRevisitsEveryRectangle) {
    // B and C share their length L. While L may be 0 both may be empty and
    // nothing is forced; once L >= 1 both must move right of the fixed A,
    // which only happens if the change to L revisits B's and C's pairs.
    Store s;
    const IntVar len = s.new_var(0, 3);
    std::vector<Rect> rects;
    rects.push_back(fixed_rect(s, 0, 0, 5, 1));
    const Rect b{s.new_var(4, 10), s.new_var(0, 0), len, 1};
    const Rect c{s.new_var(4, 10), s.new_var(0, 0), len, 1};
    rects.push_back(b);
    rects.push_back(c);
    post_diff2(s, rects);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(b.x), 4);
    EXPECT_EQ(s.min(c.x), 4);
    ASSERT_TRUE(s.set_min(len, 1));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(b.x), 5);
    EXPECT_EQ(s.min(c.x), 5);
}

TEST(Diff2, SharedRowRevisitsEveryRectangle) {
    // B and C share their row Y. Fixing Y to A's row forces both right of
    // A, which only happens if the change to Y revisits B's and C's pairs.
    Store s;
    const IntVar row = s.new_var(0, 1);
    std::vector<Rect> rects;
    rects.push_back(fixed_rect(s, 0, 0, 5, 1));
    const Rect b{s.new_var(3, 12), row, s.new_var(2, 2), 1};
    const Rect c{s.new_var(4, 12), row, s.new_var(2, 2), 1};
    rects.push_back(b);
    rects.push_back(c);
    post_diff2(s, rects);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(b.x), 3);
    EXPECT_EQ(s.min(c.x), 4);
    s.push_level();
    ASSERT_TRUE(s.assign(row, 0));
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.min(b.x), 5);
    EXPECT_EQ(s.min(c.x), 5);
    s.pop_level();
    EXPECT_EQ(s.min(b.x), 3);
    EXPECT_EQ(s.min(c.x), 4);
}

// Property: search over slot assignments with Diff2 equals a decomposition
// into pairwise disjunctions (same solution count on a small instance).
TEST(Diff2Property, AgreesWithDecompositionOnSolutionExistence) {
    // 4 data nodes, lifetimes overlapping in a chain; 2 slots.
    const int births[4] = {0, 1, 2, 3};
    const int deaths[4] = {2, 3, 4, 5};
    for (int nslots = 1; nslots <= 3; ++nslots) {
        Store s;
        std::vector<IntVar> slots;
        std::vector<Rect> rects;
        for (int i = 0; i < 4; ++i) {
            slots.push_back(s.new_var(0, nslots - 1));
            rects.push_back(Rect{s.new_var(births[i], births[i]), slots[static_cast<std::size_t>(i)],
                                 s.new_var(deaths[i] - births[i], deaths[i] - births[i]), 1});
        }
        post_diff2(s, rects);
        const SolveResult r =
            satisfy(s, {Phase{slots, VarSelect::InputOrder, ValSelect::Min, "slots"}});

        // Reference: brute-force over slot assignments.
        bool exists = false;
        for (int a = 0; a < nslots && !exists; ++a) {
            for (int b = 0; b < nslots && !exists; ++b) {
                for (int c = 0; c < nslots && !exists; ++c) {
                    for (int d = 0; d < nslots && !exists; ++d) {
                        const int sl[4] = {a, b, c, d};
                        bool ok = true;
                        for (int i = 0; i < 4 && ok; ++i) {
                            for (int j = i + 1; j < 4 && ok; ++j) {
                                const bool time_overlap =
                                    births[i] < deaths[j] && births[j] < deaths[i];
                                if (time_overlap && sl[i] == sl[j]) ok = false;
                            }
                        }
                        exists = exists || ok;
                    }
                }
            }
        }
        EXPECT_EQ(r.status == SolveStatus::Optimal, exists) << "nslots=" << nslots;
    }
}

// Property: under random push/pop dives, Diff2 reaches the same domains as
// its pairwise decomposition (one two-rectangle Diff2 per pair, brought to
// the joint fixpoint by the store's queue) — or both fail. Rectangles draw
// their variables from a small pool, so many share a variable.
TEST(Diff2Property, DomainsMatchPairwiseDecompositionAfterDives) {
    std::mt19937 rng(1);
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        // Pool: values [lo, hi] per variable, then rectangles over it.
        const int pool = pick(4, 9);
        std::vector<std::pair<int, int>> ranges;
        for (int v = 0; v < pool; ++v) {
            const int lo = pick(0, 4);
            ranges.push_back({lo, lo + pick(0, 6)});
        }
        struct Shape {
            int x, y, len, len_y;
        };
        std::vector<Shape> shapes;
        for (int r = pick(3, 6); r > 0; --r) {
            shapes.push_back({pick(0, pool - 1), pick(0, pool - 1), pick(0, pool - 1), pick(0, 2)});
        }
        Store global;
        Store pairwise;
        std::vector<IntVar> vars;
        for (const auto& [lo, hi] : ranges) {
            vars.push_back(global.new_var(lo, hi));
            pairwise.new_var(lo, hi);
        }
        std::vector<Rect> rects;
        for (const Shape& sh : shapes) {
            rects.push_back(Rect{vars[static_cast<std::size_t>(sh.x)],
                                 vars[static_cast<std::size_t>(sh.y)],
                                 vars[static_cast<std::size_t>(sh.len)], sh.len_y});
        }
        post_diff2(global, rects);
        for (std::size_t i = 0; i < rects.size(); ++i) {
            for (std::size_t j = i + 1; j < rects.size(); ++j) {
                post_diff2(pairwise, {rects[i], rects[j]});
            }
        }
        const auto agree = [&](bool ok_global, bool ok_pairwise) {
            ASSERT_EQ(ok_global, ok_pairwise);
            if (!ok_global) return;
            for (const IntVar x : vars) {
                ASSERT_EQ(global.dom(x).to_string(), pairwise.dom(x).to_string())
                    << "var " << x.index();
            }
        };
        const bool root = global.propagate();
        agree(root, pairwise.propagate());
        if (!root || HasFatalFailure()) continue;

        for (int step = 0; step < 30 && !HasFatalFailure(); ++step) {
            if (global.level() > 0 && pick(0, 3) == 0) {
                global.pop_level();
                pairwise.pop_level();
                agree(true, true);
                continue;
            }
            global.push_level();
            pairwise.push_level();
            const IntVar x = vars[static_cast<std::size_t>(pick(0, pool - 1))];
            const int v = pick(global.min(x), global.max(x));
            const int op = pick(0, 2);
            const auto mutate = [&](Store& s) {
                switch (op) {
                    case 0: return s.set_min(x, v);
                    case 1: return s.set_max(x, v);
                    default: return s.assign(x, v);
                }
            };
            const bool ok_global = mutate(global) && global.propagate();
            const bool ok_pairwise = mutate(pairwise) && pairwise.propagate();
            agree(ok_global, ok_pairwise);
            if (!ok_global) {
                global.pop_level();
                pairwise.pop_level();
            }
        }
    }
}

}  // namespace
}  // namespace revec::cp
