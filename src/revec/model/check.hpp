// The model's own schedule checker: re-checks a concrete schedule against
// every constraint of the KernelModel (eqs. 1-11 plus the port-limit
// extension) without going through the CP solver. Because checker and
// emitter read the same lowered model, the formulation and its verifier
// cannot drift apart. sched::verify_schedule is a thin wrapper over this.
#pragma once

#include <string>
#include <vector>

#include "revec/model/kernel_model.hpp"

namespace revec::model {

/// Check the schedule (`start` and `slot` per node id, plus the recorded
/// makespan) against `m`. Which constraint families are checked follows the
/// model: memory (eqs. 6-11, slots below m.num_slots) iff
/// m.memory_allocation, port limits iff m.enforce_port_limits, and every
/// start equal to its pin iff m.fixed_starts is non-empty. Returns every
/// violation found (empty = valid).
std::vector<std::string> check_schedule(const KernelModel& m, const std::vector<int>& start,
                                        const std::vector<int>& slot, int recorded_makespan);

}  // namespace revec::model
