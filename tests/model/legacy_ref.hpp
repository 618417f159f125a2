// Frozen pre-refactor reference implementation (a verbatim copy of the
// standalone schedule verifier that predates src/revec/model), used ONLY
// by the checker-agreement test: model::check_schedule must report the same
// problems as this old verifier, message for message. It is CP-free, so it
// is an independent reference for the checker.
//
// Do not "fix" or modernize this code — its value is being frozen.
#pragma once

#include <string>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/ir/graph.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/sched/schedule.hpp"

namespace revec::legacy {

/// The old standalone schedule verifier, verbatim.
std::vector<std::string> verify_schedule(const arch::ArchSpec& spec, const ir::Graph& g,
                                         const sched::Schedule& sched,
                                         const model::LowerOptions& options = {});

}  // namespace revec::legacy
