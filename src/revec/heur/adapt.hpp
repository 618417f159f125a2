// Heuristic layer, part 3: schedule adaptation for incremental re-solve
// (DESIGN §5k). Given a donor schedule cached for a *structurally similar*
// model (same fingerprint, small typed ModelDelta) and the model actually
// requested, repair the donor into a schedule that is valid for the new
// model: the donor's start times become a priority hint for the list
// scheduler (so the issue order tracks the donor's shape while every
// resource constraint is re-enforced against the new model), memory slots
// are re-allocated from scratch, and the result is gated through
// model::check_schedule. The adapted schedule is NEVER served directly —
// svc feeds it in as a warm incumbent (SolverConfig::initial_incumbent)
// so the exact search starts with a tight bound; correctness rests
// entirely on the unchanged verifier.
#pragma once

#include <string>
#include <vector>

#include "revec/model/fingerprint.hpp"
#include "revec/model/kernel_model.hpp"

namespace revec::heur {

struct AdaptResult {
    bool ok = false;            ///< verifier-clean schedule produced
    std::vector<int> start;     ///< per node id of the *new* model
    std::vector<int> slot;      ///< per node id; -1 for non-vector-data
    int makespan = 0;
    int slots_used = 0;
    std::string reason;         ///< why adaptation was rejected (ok=false)
};

/// Repair `donor_start` (a schedule for the delta's `a` side) into a
/// verified schedule for `m` (the delta's `b` side). Early-outs on
/// !delta.compatible(); otherwise walks the heuristic retry ladder with
/// the donor-derived priority hint, re-allocates slots when the model
/// does memory allocation, and re-checks with model::check_schedule
/// (every rung keeps the port limits — a stricter feasible schedule is
/// still a valid incumbent for a relaxed model). Rejected results carry a
/// reason and
/// must not be served or seeded.
AdaptResult adapt_schedule(const std::vector<int>& donor_start,
                           const model::ModelDelta& delta, const model::KernelModel& m);

}  // namespace revec::heur
