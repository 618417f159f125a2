// The paper's one-configuration-per-cycle rule (eq. 3), in its flat form
// over op start times and in the §4.3 modulo form over residues, as one
// global propagator. Items are (time variable, configuration id) pairs;
// optionally each slot value t has a configuration variable slot[t] (the
// per-residue configuration of the reconfiguration-aware modulo model).
// Two rules:
//   (a) items of different configurations never take the same value;
//   (b) an item fixed at slot t fixes slot[t] to its configuration, and a
//       configuration removed from slot[t] removes t from every item of
//       that configuration.
//
// The textbook decomposition posts one disequality per item pair of
// different configurations (O(n^2)) and, for the slot channel, two
// reified-equality booleans and one clause per (item, slot) pair (O(n·II)
// variables and propagators). This propagator posts none of them and
// reaches exactly the decomposition's fixpoint: a disequality prunes only
// once one side is fixed (rule a), and the reified-constant booleans are
// domain-consistent, so "item at t => slot[t] = c" propagates exactly rule
// (b) in both directions. It is incremental: the store advises it of each
// fixed item and each changed slot variable, and a run revisits only those.
#pragma once

#include <vector>

#include "revec/cp/store.hpp"
#include "revec/cp/var.hpp"

namespace revec::cp {

/// Items and optional slot variables of one eq. 3 block. Item and slot
/// variables must be pairwise distinct; configuration ids are >= 0.
struct ConfigSlots {
    std::vector<IntVar> time;  ///< per item
    std::vector<int> config;   ///< per item
    std::vector<IntVar> slot;  ///< configuration of slot value t; may be empty

    void add(IntVar t, int c) {
        time.push_back(t);
        config.push_back(c);
    }
};

/// Post rules (a) and (b) over `items`.
void post_config_slots(Store& store, ConfigSlots items);

}  // namespace revec::cp
