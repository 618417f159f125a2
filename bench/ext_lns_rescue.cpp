// Extension — rescuing the QRD memory cliff with LNS: at 7 memory slots
// the QRD model is provably UNSAT and at the paper's 8 slots the optimum
// equals the critical path, so the interesting anytime question is how
// fast a *bad* 8-slot incumbent can be repaired when the exact solver's
// budget is gone. This harness seeds large-neighbourhood search from the
// most conservative heuristic ladder rung (serialized vector issue,
// spread write-backs — far above the optimum on purpose) and gives it a
// 500 ms deadline: the probe must return a verify-clean schedule strictly
// better than that seed, or exit non-zero. Pass --smoke for the CI-sized
// variant (the probe and the portfolio cross-check, no relax-pct sweep).
#include "common.hpp"

#include <cstring>

#include "revec/heur/alloc.hpp"
#include "revec/heur/list.hpp"
#include "revec/lns/lns.hpp"
#include "revec/model/check.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/stopwatch.hpp"

using namespace revec;

namespace {

constexpr int kSlots = 8;
constexpr std::int64_t kDeadlineMs = 500;

struct Seed {
    model::KernelModel km;
    std::vector<int> start;
    std::vector<int> slot;
    int makespan = 0;
    bool ok = false;
};

/// The conservative incumbent the probe starts from: the last heuristic
/// ladder rung plus the greedy slot allocator, re-lowered with a horizon
/// that covers it (the same recipe the LNS test fixtures use).
Seed conservative_seed(const arch::ArchSpec& spec, const ir::Graph& g) {
    Seed seed;
    model::LowerOptions lo;
    lo.num_slots = kSlots;
    const model::KernelModel km0 = model::lower_ir(spec, g, lo);
    const heur::ListResult list =
        heur::priority_list_schedule(km0, heur::ladder().back());
    seed.km = model::lower_ir(spec, g, lo, list.makespan + 2);
    const heur::AllocResult alloc = heur::allocate_slots(seed.km, list.start);
    if (!alloc.ok) return seed;
    seed.start = list.start;
    seed.slot = alloc.slot;
    seed.makespan = list.makespan;
    seed.ok =
        model::check_schedule(seed.km, seed.start, seed.slot, seed.makespan).empty();
    return seed;
}

lns::LnsResult deadline_probe(const Seed& seed, double relax_pct) {
    lns::LnsOptions opts;
    opts.seed = 0x9d5u;
    opts.max_rounds = -1;  // deadline-capped, not round-capped
    opts.deadline = Deadline::after_ms(kDeadlineMs);
    opts.tuning.relax_pct = relax_pct;
    return lns::improve_schedule(seed.km, seed.start, seed.slot, seed.makespan, opts);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
    const std::string metrics_path = bench::metrics_path_from_args(argc, argv);
    obs::MetricsRegistry metrics;

    bench::banner("Extension — rescuing the QRD memory cliff with LNS",
                  "Table 1 memory allocation at 8 slots (7 is UNSAT); anytime "
                  "repair of a conservative incumbent under a 500 ms deadline");

    const arch::ArchSpec spec = arch::ArchSpec::eit();
    const ir::Graph g = bench::kernel_qrd();
    const Seed seed = conservative_seed(spec, g);
    if (!seed.ok || seed.makespan <= seed.km.critical_path) {
        std::cout << "SEED CONSTRUCTION FAILED (no verified conservative incumbent "
                     "above the critical path)\n";
        return 1;
    }

    Table t({"run", "makespan (cc)", "rounds", "accepted", "time (ms)", "status"});
    t.add_row({"conservative seed", std::to_string(seed.makespan), "-", "-", "-",
               "+" + std::to_string(seed.makespan - seed.km.critical_path) +
                   " cc vs critical path"});

    // The acceptance probe: default relax fraction, 500 ms, strictly
    // better than the seed and verify-clean or the harness fails.
    bool all_ok = true;
    {
        const Stopwatch watch;
        const lns::LnsResult r = deadline_probe(seed, lns::LnsTuning{}.relax_pct);
        const double wall_ms = watch.elapsed_ms();
        const bool verified =
            model::check_schedule(seed.km, r.start, r.slot, r.makespan).empty();
        const bool rescued = verified && r.improved && r.makespan < seed.makespan;
        all_ok = all_ok && rescued;
        t.add_row({"lns probe (500 ms)", std::to_string(r.makespan),
                   std::to_string(r.rounds), std::to_string(r.accepted),
                   format_fixed(wall_ms, 1),
                   rescued ? "rescued, verified" : "PROBE FAILED"});
        r.export_metrics(metrics);
        metrics.set("lns.seed_makespan", seed.makespan);
        metrics.set("lns.critical_path", seed.km.critical_path);
    }

    // Cross-check through the driver path: a portfolio with LNS workers
    // under the same deadline is never worse than the heuristic seed (the
    // merge keeps the best verified incumbent).
    {
        sched::ScheduleOptions opts;
        opts.spec = spec;
        opts.num_slots = kSlots;
        opts.timeout_ms = kDeadlineMs;
        opts.solver.threads = 2;
        opts.solver.lns_workers = 2;
        const Stopwatch watch;
        const sched::Schedule s = sched::schedule_kernel(g, opts);
        const double wall_ms = watch.elapsed_ms();
        const bool ok = s.feasible() && s.makespan <= seed.makespan;
        all_ok = all_ok && ok;
        t.add_row({"portfolio + 2 lns (500 ms)",
                   s.feasible() ? std::to_string(s.makespan) : "-", "-", "-",
                   format_fixed(wall_ms, 1),
                   ok ? "never worse than seed" : "WORSE THAN SEED"});
    }

    // Full mode: how the relax fraction trades repair-tree size against
    // neighbourhood reach under the same deadline.
    if (!smoke) {
        for (const double pct : {0.1, 0.5}) {
            const Stopwatch watch;
            const lns::LnsResult r = deadline_probe(seed, pct);
            const double wall_ms = watch.elapsed_ms();
            const bool verified =
                model::check_schedule(seed.km, r.start, r.slot, r.makespan).empty();
            all_ok = all_ok && verified && r.makespan <= seed.makespan;
            t.add_row({"lns relax " + std::to_string(static_cast<int>(pct * 100)) + "%",
                       std::to_string(r.makespan), std::to_string(r.rounds),
                       std::to_string(r.accepted), format_fixed(wall_ms, 1),
                       verified ? "verified" : "VERIFY FAILED"});
        }
    }

    t.print(std::cout);
    bench::note("the seed serializes vector issue and spreads write-backs, so the "
                "hot-row and critical-path selectors find compressible windows "
                "immediately; every accepted round re-verifies against the base "
                "model before it becomes the incumbent.");
    bench::write_metrics(metrics_path, metrics);
    std::cout << (all_ok ? "\nLNS rescue probe passed\n"
                         : "\nLNS RESCUE FAILURES PRESENT\n");
    return all_ok ? 0 : 1;
}
