// Propagator interface. A propagator watches a set of variables and, when
// any of them changes, prunes inconsistent values from its variables'
// domains via the Store modification API. Propagation must be monotone
// (only ever remove values), which together with finite domains guarantees
// fixpoint termination.
//
// Wakeups are event-typed: every domain mutation fires a set of
// modification events, and a propagator subscribes to each watched
// variable with an event mask. A bounds-consistent propagator that
// subscribes {MIN, MAX} is never woken by interior hole removals. Masks
// must be conservative: if skipping an event could change what the
// propagator would prune, the event belongs in the mask — otherwise the
// propagation fixpoint (and with it the search tree) would shift.
#pragma once

#include <cstdint>
#include <string>

#include "revec/cp/var.hpp"

namespace revec::cp {

class Store;

// -- modification events ----------------------------------------------------

/// Bitmask of domain modification events. DOMAIN fires on *every* change,
/// so subscribing kEventAll wakes on any change; MIN/MAX/FIXED refine it.
using EventMask = std::uint32_t;

inline constexpr EventMask kEventMin = 1u << 0;    ///< lower bound increased
inline constexpr EventMask kEventMax = 1u << 1;    ///< upper bound decreased
inline constexpr EventMask kEventFixed = 1u << 2;  ///< became a single value
inline constexpr EventMask kEventDomain = 1u << 3; ///< any change (holes included)
inline constexpr EventMask kEventBounds = kEventMin | kEventMax;
inline constexpr EventMask kEventAll = kEventMin | kEventMax | kEventFixed | kEventDomain;
inline constexpr int kNumEventKinds = 4;

/// One subscription: wake the propagator when `var` fires an event in
/// `events`.
struct Watch {
    IntVar var;
    EventMask events = kEventAll;
};

/// Propagation cost class; the store drains cheaper buckets first so
/// expensive global constraints see the strongest domains when they run.
enum class Priority : std::uint8_t {
    Unary = 0,   ///< unary/binary checks: disequality, reified-const, clauses
    Linear = 1,  ///< linear sums, element, count, reified-var, n-ary arith
    Global = 2,  ///< cumulative, alldifferent, diff2
};
inline constexpr int kNumPriorities = 3;

class Propagator {
public:
    virtual ~Propagator() = default;

    /// Prune. Return false iff the propagator detected failure directly;
    /// domain wipe-outs are also detected by the Store modification calls
    /// (which return false), and implementations must forward that.
    virtual bool propagate(Store& store) = 0;

    /// Human-readable description for debugging and solver traces.
    virtual std::string describe() const = 0;

    /// Stable class label ("Cumulative", "LinearLeq", ...) used to attribute
    /// profiled work (executions, time, domain changes, failures) to
    /// propagator classes in the metrics output. Must return a pointer to a
    /// static-duration string.
    virtual const char* class_name() const { return "Propagator"; }

    /// Queue bucket this propagator drains from.
    virtual Priority priority() const { return Priority::Linear; }

    /// Declare that one propagate() run reaches this propagator's local
    /// fixpoint: re-running it immediately on the domains it just produced
    /// would change nothing. The store then suppresses self-wakeups (events
    /// the propagator fires on its own watched variables while running).
    /// Declaring this falsely shifts the propagation fixpoint — when in
    /// doubt, leave it false.
    virtual bool idempotent() const { return false; }

    /// Identifier assigned by the Store at post time.
    int id() const { return id_; }

private:
    friend class Store;
    int id_ = -1;
};

}  // namespace revec::cp
