#include "revec/sched/verify.hpp"

#include "revec/model/check.hpp"

namespace revec::sched {

std::vector<std::string> verify_schedule(const arch::ArchSpec& spec, const ir::Graph& g,
                                         const Schedule& sched,
                                         const model::LowerOptions& options) {
    // Thin shim over the shared model checker: lower the kernel with the
    // same knobs and check the raw start/slot vectors against it. The
    // verifier stays independent of the CP solver — model::check_schedule
    // recomputes every constraint from the KernelModel alone.
    return model::check_schedule(model::lower_ir(spec, g, options), sched.start, sched.slot,
                                 sched.makespan);
}

}  // namespace revec::sched
