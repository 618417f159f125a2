// The single CP emitter: posts one KernelModel into a cp::Store — the flat
// §3.3-§3.5 model (eqs. 1-11 plus port limits) or, when the model carries a
// ModuloWrap, the §4.3 modulo model over residues and stages. Both
// schedule_kernel and the modulo pipeline call this one function, so the
// duplicated channeling blocks of the historical per-consumer builders are
// gone and nogood / LNS work gets one stable table of variable handles.
//
// Emission is deterministic: variable creation order and propagator posting
// order are a pure function of the KernelModel, so any emission's handles
// index the solution vector of a solve over any other emission of the same
// model (the portfolio re-posts per worker through this property), and the
// search tree replays node-for-node across emissions.
#pragma once

#include <map>
#include <vector>

#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"
#include "revec/model/kernel_model.hpp"

namespace revec::model {

/// Variable handles of one emission. Which fields are populated depends on
/// the model: flat models fill start/slot_of/makespan; modulo models fill
/// start/residue/stage and (when minimizing) reconfig_count.
struct VarTable {
    std::vector<cp::IntVar> start;      ///< per node id
    std::map<int, cp::IntVar> slot_of;  ///< vector-data node id -> slot var
    std::vector<cp::IntVar> residue;    ///< per node id (invalid for data nodes)
    std::vector<cp::IntVar> stage;      ///< per node id (invalid for data nodes)
    cp::IntVar makespan;                ///< flat objective (eq. 5)
    cp::IntVar reconfig_count;          ///< modulo objective when minimizing R
    std::vector<cp::Phase> phases;
    /// Contradiction found before or while posting: a modulo
    /// reconfiguration budget or II below modulo_reconfig_floor (nothing is
    /// posted), or a frozen_starts value outside the model bounds (LNS
    /// repair — the round is rejected).
    bool infeasible = false;
};

/// Post `m` into `store` and return the variable handles and search phases.
/// Throws revec::Error when m.fixed_starts is malformed or conflicts with
/// the model bounds.
VarTable emit_cp(cp::Store& store, const KernelModel& m);

}  // namespace revec::model
