#include "revec/arch/memory.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace revec::arch {
namespace {

// Default geometry: 16 banks, 4 banks/page, 4 lines => 64 slots.
TEST(MemoryGeometry, LinearEnumeration) {
    const MemoryGeometry g;
    EXPECT_EQ(g.slots(), 64);
    EXPECT_EQ(g.pages(), 4);
    // Paper's numbering: slot 0 = bank 0 line 0, slot 1 = bank 1 line 0,
    // slot 17 = bank 1 line 1.
    EXPECT_EQ(g.bank_of(0), 0);
    EXPECT_EQ(g.line_of(0), 0);
    EXPECT_EQ(g.bank_of(1), 1);
    EXPECT_EQ(g.bank_of(17), 1);
    EXPECT_EQ(g.line_of(17), 1);
    EXPECT_EQ(g.slot_at(1, 1), 17);
}

TEST(MemoryGeometry, PageOfSlot) {
    const MemoryGeometry g;
    EXPECT_EQ(g.page_of(0), 0);
    EXPECT_EQ(g.page_of(3), 0);
    EXPECT_EQ(g.page_of(4), 1);
    EXPECT_EQ(g.page_of(8), 2);
    EXPECT_EQ(g.page_of(15), 3);
    EXPECT_EQ(g.page_of(16), 0);  // next line wraps to page 0
}

TEST(MemoryGeometry, RoundTripSlotBankLine) {
    const MemoryGeometry g;
    for (int s = 0; s < g.slots(); ++s) {
        EXPECT_EQ(g.slot_at(g.bank_of(s), g.line_of(s)), s);
        EXPECT_TRUE(g.valid_slot(s));
    }
    EXPECT_FALSE(g.valid_slot(-1));
    EXPECT_FALSE(g.valid_slot(g.slots()));
}

// The descriptor rule behind eqs. 7-9, checked against its first-principles
// definition for every slot pair of the default geometry: two distinct slots
// conflict exactly when they share a page but not a line.
TEST(MemoryGeometry, AccessConflictAllPairs) {
    const MemoryGeometry g;
    for (int a = 0; a < g.slots(); ++a) {
        for (int b = 0; b < g.slots(); ++b) {
            const bool expected =
                a != b && g.page_of(a) == g.page_of(b) && g.line_of(a) != g.line_of(b);
            EXPECT_EQ(g.access_conflict(a, b), expected) << "slots " << a << ", " << b;
            // Symmetric by construction.
            EXPECT_EQ(g.access_conflict(a, b), g.access_conflict(b, a));
        }
        // Irreflexive: a slot never conflicts with itself (broadcast reads).
        EXPECT_FALSE(g.access_conflict(a, a));
    }
}

TEST(MemoryGeometry, AccessConflictMatchesAccessCheck) {
    // Single-read-port-safe pairs (distinct banks): the pairwise predicate
    // must agree with the full simultaneous-access check.
    const MemoryGeometry g;
    for (int a = 0; a < g.slots(); ++a) {
        for (int b = 0; b < g.slots(); ++b) {
            if (g.bank_of(a) == g.bank_of(b)) continue;  // bank-port conflicts aside
            const std::vector<int> reads = {a, b};
            const bool ok = check_simultaneous_access(g, reads, {}).ok;
            EXPECT_EQ(g.access_conflict(a, b), !ok) << "slots " << a << ", " << b;
        }
    }
}

TEST(AccessCheck, SameLineSamePageOk) {
    const MemoryGeometry g;
    // Four slots in page 0, all on line 1: banks 0..3 at line 1.
    const std::vector<int> reads = {g.slot_at(0, 1), g.slot_at(1, 1), g.slot_at(2, 1),
                                    g.slot_at(3, 1)};
    EXPECT_TRUE(check_simultaneous_access(g, reads, {}).ok);
}

TEST(AccessCheck, SamePageDifferentLineRejected) {
    const MemoryGeometry g;
    const std::vector<int> reads = {g.slot_at(0, 0), g.slot_at(1, 2)};  // page 0, lines 0 and 2
    const AccessCheck c = check_simultaneous_access(g, reads, {});
    EXPECT_FALSE(c.ok);
    EXPECT_NE(c.reason.find("page"), std::string::npos);
}

TEST(AccessCheck, DifferentPagesDifferentLinesOk) {
    const MemoryGeometry g;
    const std::vector<int> reads = {g.slot_at(0, 0), g.slot_at(5, 2)};  // pages 0 and 1
    EXPECT_TRUE(check_simultaneous_access(g, reads, {}).ok);
}

TEST(AccessCheck, BankReadConflictRejected) {
    const MemoryGeometry g;
    // Same bank, different lines — also a page violation, but with a
    // one-bank page geometry it is purely a port conflict.
    const MemoryGeometry g1{.banks = 4, .banks_per_page = 1, .lines = 4};
    const std::vector<int> reads = {g1.slot_at(2, 0), g1.slot_at(2, 3)};
    const AccessCheck c = check_simultaneous_access(g1, reads, {});
    EXPECT_FALSE(c.ok);
    EXPECT_NE(c.reason.find("bank"), std::string::npos);
    (void)g;
}

TEST(AccessCheck, ReadAndWriteSameBankOk) {
    const MemoryGeometry g;
    // One read port and one write port per bank: same-line accesses in one
    // bank, one read + one write, are legal.
    const std::vector<int> reads = {g.slot_at(2, 1)};
    const std::vector<int> writes = {g.slot_at(2, 1)};
    EXPECT_TRUE(check_simultaneous_access(g, reads, writes).ok);
}

TEST(AccessCheck, ReadAndWriteDifferentLinesSamePageRejected) {
    const MemoryGeometry g;
    // Reads and writes share the page descriptor: mixing lines within a page
    // is illegal even across ports.
    const std::vector<int> reads = {g.slot_at(0, 0)};
    const std::vector<int> writes = {g.slot_at(1, 1)};
    EXPECT_FALSE(check_simultaneous_access(g, reads, writes).ok);
}

TEST(AccessCheck, DuplicateReadIsBroadcast) {
    const MemoryGeometry g;
    const std::vector<int> reads = {5, 5, 5};
    EXPECT_TRUE(check_simultaneous_access(g, reads, {}).ok);
}

TEST(AccessCheck, ReadLimitEnforced) {
    const MemoryGeometry g;
    // Nine distinct slots on the same line: legal page-wise, over the 8-read
    // limit.
    std::vector<int> reads;
    for (int b = 0; b < 9; ++b) reads.push_back(g.slot_at(b, 0));
    const AccessCheck c = check_simultaneous_access(g, reads, {});
    EXPECT_FALSE(c.ok);
    EXPECT_NE(c.reason.find("read"), std::string::npos);
}

TEST(AccessCheck, WriteLimitEnforced) {
    const MemoryGeometry g;
    std::vector<int> writes;
    for (int b = 0; b < 5; ++b) writes.push_back(g.slot_at(b, 0));
    const AccessCheck c = check_simultaneous_access(g, std::vector<int>{}, writes);
    EXPECT_FALSE(c.ok);
    EXPECT_NE(c.reason.find("write"), std::string::npos);
}

TEST(AccessCheck, TwoMatricesReadOneWritten) {
    // The paper's headline capability: two 4x4 matrices read and one written
    // per cycle. Matrix k occupies page k, line 0.
    const MemoryGeometry g;
    std::vector<int> reads;
    for (int b = 0; b < 4; ++b) reads.push_back(g.slot_at(b, 0));      // page 0
    for (int b = 4; b < 8; ++b) reads.push_back(g.slot_at(b, 0));      // page 1
    std::vector<int> writes;
    for (int b = 8; b < 12; ++b) writes.push_back(g.slot_at(b, 0));    // page 2
    EXPECT_TRUE(check_simultaneous_access(g, reads, writes).ok);
}

TEST(AccessCheck, OutOfRangeSlotRejected) {
    const MemoryGeometry g;
    const std::vector<int> reads = {64};
    const AccessCheck c = check_simultaneous_access(g, reads, {});
    EXPECT_FALSE(c.ok);
    EXPECT_NE(c.reason.find("out of range"), std::string::npos);
}

// The full text of every rule's reason, so a rewrite of the checker keeps
// what the simulator and the checker's users print. Where several slots
// break one rule, the reason names the first in ascending slot order.
TEST(AccessCheck, PinsEveryReasonText) {
    const MemoryGeometry g;
    const std::vector<int> none;
    EXPECT_EQ(check_simultaneous_access(g, std::vector<int>{3, 64}, none).reason,
              "read slot 64 out of range [0, 64)");
    EXPECT_EQ(check_simultaneous_access(g, none, std::vector<int>{-1}).reason,
              "write slot -1 out of range [0, 64)");

    std::vector<int> line0;
    for (int b = 0; b < 9; ++b) line0.push_back(g.slot_at(b, 0));
    EXPECT_EQ(check_simultaneous_access(g, line0, none).reason,
              "9 reads exceed the limit of 8 per cycle");
    line0.resize(5);
    EXPECT_EQ(check_simultaneous_access(g, none, line0).reason,
              "5 writes exceed the limit of 4 per cycle");

    const MemoryGeometry g1{.banks = 4, .banks_per_page = 1, .lines = 4};
    const std::vector<int> one_bank = {g1.slot_at(2, 3), g1.slot_at(2, 0)};
    EXPECT_EQ(check_simultaneous_access(g1, one_bank, none).reason,
              "two reads hit bank 2 in the same cycle (slot 14)");
    EXPECT_EQ(check_simultaneous_access(g1, none, one_bank).reason,
              "two writes hit bank 2 in the same cycle (slot 14)");
    // Banks 1 and 2 both repeat; bank rules come before the page rule.
    EXPECT_EQ(check_simultaneous_access(g, std::vector<int>{34, 18, 17, 2, 1}, none).reason,
              "two reads hit bank 1 in the same cycle (slot 17)");

    EXPECT_EQ(check_simultaneous_access(g, std::vector<int>{g.slot_at(1, 2), g.slot_at(0, 0)},
                                        none)
                  .reason,
              "slots in page 0 accessed on lines 0 and 2 in the same cycle (would need a "
              "descriptor reconfiguration)");
    EXPECT_EQ(check_simultaneous_access(g, std::vector<int>{g.slot_at(5, 3)},
                                        std::vector<int>{g.slot_at(6, 1)})
                  .reason,
              "slots in page 1 accessed on lines 1 and 3 in the same cycle (would need a "
              "descriptor reconfiguration)");
    EXPECT_EQ(check_simultaneous_access(g, line0, none).reason, "");
}

// The paper's Fig. 8: small memory with 3 slots per bank. Matrix A has two
// vectors sharing a bank; B has two vectors in the same page on different
// lines; C is conflict-free.
TEST(AccessCheck, Figure8Examples) {
    const MemoryGeometry g{.banks = 16, .banks_per_page = 4, .lines = 3};

    // A: A1 and A3 in bank 0 (lines 0, 1); A2 and A4 in bank 1 (lines 0, 1).
    const std::vector<int> a = {g.slot_at(0, 0), g.slot_at(1, 0), g.slot_at(0, 1),
                                g.slot_at(1, 1)};
    EXPECT_FALSE(check_simultaneous_access(g, a, {}).ok);

    // B: B1,B2 in page 1 line 0 (banks 4,5); B3 in page 2 line 0 (bank 8);
    // B4 in page 2 line 1 (bank 9): same page, different lines.
    const std::vector<int> b = {g.slot_at(4, 0), g.slot_at(5, 0), g.slot_at(8, 0),
                                g.slot_at(9, 1)};
    EXPECT_FALSE(check_simultaneous_access(g, b, {}).ok);

    // C: four banks of page 3, all on line 2.
    const std::vector<int> c = {g.slot_at(12, 2), g.slot_at(13, 2), g.slot_at(14, 2),
                                g.slot_at(15, 2)};
    EXPECT_TRUE(check_simultaneous_access(g, c, {}).ok);
}

}  // namespace
}  // namespace revec::arch
