// Abstraction of the EIT vector memory (paper §3.4, Fig. 7): banks grouped
// into pages, each bank a column of slots; all slots at the same depth form
// a line. One slot holds one vector. Simultaneous access within a page is
// only legal when the accessed slots share a line (descriptor-register
// limitation), each bank supports one read and one write per cycle, and the
// whole memory supports 8 vector reads + 4 vector writes per cycle.
#pragma once

#include <span>
#include <string>

namespace revec::arch {

/// Cap on the slots of a memory (banks * lines): ArchSpec::validate and
/// model::from_json reject larger geometries, so per-slot tables stay small
/// and the slot count always fits an int.
inline constexpr int kMaxSlots = 1 << 16;

/// Geometry of the banked vector memory. Slots are enumerated linearly
/// across banks first: slot = line * banks + bank (matching the paper's
/// "first slot in the first bank is 0, first slot in the second bank is 1").
struct MemoryGeometry {
    int banks = 16;
    int banks_per_page = 4;
    int lines = 4;  ///< slots per bank

    int pages() const { return banks / banks_per_page; }
    int slots() const { return banks * lines; }

    int bank_of(int slot) const { return slot % banks; }
    int line_of(int slot) const { return slot / banks; }
    int page_of(int slot) const { return (slot % banks) / banks_per_page; }
    int slot_at(int bank, int line) const { return line * banks + bank; }

    bool valid_slot(int slot) const { return slot >= 0 && slot < slots(); }

    bool operator==(const MemoryGeometry&) const = default;

    /// Descriptor rule behind the paper's eqs. 7-9: two *distinct* slots
    /// cannot be accessed in one cycle when they sit on the same page but on
    /// different lines. Same slot (broadcast), different pages, or a shared
    /// line are all fine.
    bool access_conflict(int slot_a, int slot_b) const {
        return slot_a != slot_b && page_of(slot_a) == page_of(slot_b) &&
               line_of(slot_a) != line_of(slot_b);
    }
};

/// Outcome of a simultaneous-access legality check.
struct AccessCheck {
    bool ok = true;
    std::string reason;  ///< first violated rule when !ok
};

/// Limits on per-cycle memory traffic (defaults match the EIT instance).
struct AccessLimits {
    int max_reads = 8;
    int max_writes = 4;
};

/// Check whether the given slot sets can be accessed in a single cycle:
///  1. every slot is in range;
///  2. distinct slots in the same page share a line (descriptor rule);
///  3. every bank is read at most once and written at most once
///     (a slot read twice in the same cycle counts once: broadcast);
///  4. total reads <= max_reads and writes <= max_writes.
AccessCheck check_simultaneous_access(const MemoryGeometry& geom, std::span<const int> reads,
                                      std::span<const int> writes,
                                      const AccessLimits& limits = {});

}  // namespace revec::arch
