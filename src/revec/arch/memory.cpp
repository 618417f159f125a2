#include "revec/arch/memory.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "revec/support/assert.hpp"

namespace revec::arch {

namespace {

/// Deduplicated, validated slot list; sets `check` on range errors.
std::vector<int> unique_slots(const MemoryGeometry& geom, std::span<const int> slots,
                              const char* what, AccessCheck& check) {
    std::vector<int> out(slots.begin(), slots.end());
    for (const int s : out) {
        if (!geom.valid_slot(s)) {
            std::ostringstream os;
            os << what << " slot " << s << " out of range [0, " << geom.slots() << ")";
            check = {false, os.str()};
            return {};
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

}  // namespace

AccessCheck check_simultaneous_access(const MemoryGeometry& geom, std::span<const int> reads,
                                      std::span<const int> writes, const AccessLimits& limits) {
    AccessCheck check;
    const std::vector<int> r = unique_slots(geom, reads, "read", check);
    if (!check.ok) return check;
    const std::vector<int> w = unique_slots(geom, writes, "write", check);
    if (!check.ok) return check;

    // Rule 4: traffic limits (after broadcast dedup).
    if (static_cast<int>(r.size()) > limits.max_reads) {
        std::ostringstream os;
        os << r.size() << " reads exceed the limit of " << limits.max_reads << " per cycle";
        return {false, os.str()};
    }
    if (static_cast<int>(w.size()) > limits.max_writes) {
        std::ostringstream os;
        os << w.size() << " writes exceed the limit of " << limits.max_writes << " per cycle";
        return {false, os.str()};
    }

    // Rule 3: per-bank port conflicts, in ascending slot order.
    std::vector<char> bank_used(static_cast<std::size_t>(geom.banks));
    const auto bank_conflict = [&](const std::vector<int>& slots, const char* what) -> AccessCheck {
        std::fill(bank_used.begin(), bank_used.end(), 0);
        for (const int s : slots) {
            char& used = bank_used[static_cast<std::size_t>(geom.bank_of(s))];
            if (used != 0) {
                std::ostringstream os;
                os << "two " << what << "s hit bank " << geom.bank_of(s)
                   << " in the same cycle (slot " << s << ")";
                return {false, os.str()};
            }
            used = 1;
        }
        return {};
    };
    if (AccessCheck c = bank_conflict(r, "read"); !c.ok) return c;
    if (AccessCheck c = bank_conflict(w, "write"); !c.ok) return c;

    // Rule 2: within a page, all simultaneously accessed slots (reads and
    // writes together; they share the page's descriptor configuration) must
    // be on the same line.
    std::vector<int> all = r;
    all.insert(all.end(), w.begin(), w.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    std::vector<int> page_line(static_cast<std::size_t>(geom.pages()), -1);
    for (const int s : all) {
        const int p = geom.page_of(s);
        const int l = geom.line_of(s);
        int& seen = page_line[static_cast<std::size_t>(p)];
        if (seen == -1) {
            seen = l;
        } else if (seen != l) {
            std::ostringstream os;
            os << "slots in page " << p << " accessed on lines " << seen << " and " << l
               << " in the same cycle (would need a descriptor reconfiguration)";
            return {false, os.str()};
        }
    }
    return {};
}

}  // namespace revec::arch
