// Independent schedule verification: re-checks every constraint of the
// paper's model (eqs. 1-11) directly against a Schedule, without going
// through the CP solver. Used by tests (the solver must never emit a
// schedule this rejects) and by the benchmark harnesses.
#pragma once

#include <string>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/ir/graph.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/sched/schedule.hpp"

namespace revec::sched {

/// All violations found (empty = schedule is valid) against the model
/// `g` lowers to under `options` — pass the ScheduleOptions the schedule
/// was solved with, so the slot budget, pinned starts, memory, port and
/// lifetime rules checked are the ones the solver saw.
std::vector<std::string> verify_schedule(const arch::ArchSpec& spec, const ir::Graph& g,
                                         const Schedule& sched,
                                         const model::LowerOptions& options = {});

}  // namespace revec::sched
