// model::makespan_lower_bound: soundness against an exact oracle on random
// kernels, the paper kernels' bound and the term that sets it, and the
// root close it enables in schedule_model.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/cp/arith.hpp"
#include "revec/cp/config_slots.hpp"
#include "revec/cp/cumulative.hpp"
#include "revec/cp/linear.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/sched/model.hpp"
#include "revec/sched/verify.hpp"
#include "revec/sim/simulator.hpp"
#include "revec/support/stopwatch.hpp"

namespace revec::model {
namespace {

/// Optimum of the relaxation the bound reasons about: precedence, the
/// three unit cumulatives and one configuration per cycle; no memory, no
/// ports. Posted here rather than through emit_cp, whose makespan variable
/// starts at the bound under test: an unsound bound would only raise that
/// emission's optimum to itself and never show. The relaxation's optimum
/// is at most the full model's, so bound <= it is the stricter check.
/// nullopt when the search does not finish within `budget_ms`.
std::optional<int> relaxed_optimum(const KernelModel& m, std::int64_t budget_ms) {
    cp::Store store;
    std::vector<cp::IntVar> start;
    for (const ModelNode& node : m.nodes) {
        const auto i = static_cast<std::size_t>(node.id);
        start.push_back(store.new_var(m.asap[i], m.alap[i]));
    }
    for (const int d : m.inputs) store.assign(start[static_cast<std::size_t>(d)], 0);
    std::vector<cp::IntVar> completions;
    for (const ModelNode& node : m.nodes) {
        const cp::IntVar c = store.new_var(0, m.horizon);
        cp::post_eq_offset(store, start[static_cast<std::size_t>(node.id)], node.latency, c);
        completions.push_back(c);
    }
    const cp::IntVar makespan = store.new_var(0, m.horizon);
    cp::post_max(store, makespan, completions);
    for (const ModelEdge& e : m.edges) {
        const cp::IntVar src = start[static_cast<std::size_t>(e.src)];
        const cp::IntVar dst = start[static_cast<std::size_t>(e.dst)];
        if (e.kind == EdgeKind::DataProduce) {
            cp::post_eq_offset(store, src, e.latency, dst);
        } else {
            cp::post_leq_offset(store, src, e.latency, dst);
        }
    }
    std::vector<cp::CumulTask> lanes;
    std::vector<cp::CumulTask> scalar;
    std::vector<cp::CumulTask> index_merge;
    cp::ConfigSlots eq3;
    std::vector<cp::IntVar> op_starts;
    for (const int op : m.ops) {
        const ModelNode& node = m.node(op);
        const cp::IntVar s = start[static_cast<std::size_t>(op)];
        op_starts.push_back(s);
        if (node.unit == Unit::VectorCore) {
            lanes.push_back({s, node.duration, node.lanes});
            if (node.lanes < m.caps.vector_lanes) eq3.add(s, node.config);
        } else if (node.unit == Unit::Scalar) {
            scalar.push_back({s, node.duration, 1});
        } else {
            index_merge.push_back({s, node.duration, 1});
        }
    }
    if (!lanes.empty()) cp::post_cumulative(store, lanes, m.caps.vector_lanes);
    if (!scalar.empty()) cp::post_cumulative(store, scalar, m.caps.scalar_units);
    if (!index_merge.empty()) cp::post_cumulative(store, index_merge, m.caps.index_merge_units);
    if (!eq3.time.empty()) cp::post_config_slots(store, std::move(eq3));

    cp::SearchOptions opts;
    opts.deadline = Deadline::after_ms(budget_ms);
    const cp::SolveResult r = cp::solve(
        store, {{op_starts, cp::VarSelect::MinDomain, cp::ValSelect::Min, "ops"}}, makespan,
        opts);
    if (r.status != cp::SolveStatus::Optimal) return std::nullopt;
    return r.value_of(makespan);
}

struct SpecVariant {
    const char* name;
    arch::ArchSpec spec;
};

std::vector<SpecVariant> spec_variants() {
    SpecVariant eit{"eit", arch::ArchSpec::eit()};
    SpecVariant units{"2 scalar + 2 index/merge", arch::ArchSpec::eit()};
    units.spec.scalar_units = 2;
    units.spec.index_merge_units = 2;
    SpecVariant slow{"vector_duration 2", arch::ArchSpec::eit()};
    slow.spec.vector_duration = 2;
    return {eit, units, slow};
}

TEST(MakespanBound, NeverExceedsTheOptimumOnRandomKernels) {
    int checked = 0;
    for (const SpecVariant& variant : spec_variants()) {
        for (unsigned seed = 1; seed <= 40; ++seed) {
            for (const bool matrix : {true, false}) {
                apps::RandomKernelOptions kopts;
                kopts.seed = seed;
                kopts.num_ops = 20 + static_cast<int>(seed % 5) * 5;
                kopts.use_matrix = matrix;
                const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));
                sched::ScheduleOptions so;
                so.spec = variant.spec;
                const KernelModel km = sched::lower_for_schedule(g, so);
                const MakespanBound bound = makespan_lower_bound(km);
                const std::optional<int> optimum = relaxed_optimum(km, 2000);
                if (!optimum.has_value()) continue;
                ++checked;
                EXPECT_LE(bound.value(), *optimum)
                    << variant.name << " seed " << seed << (matrix ? " matrix" : "")
                    << ": critical path " << bound.critical_path << ", scalar "
                    << bound.scalar << ", index/merge " << bound.index_merge
                    << ", vector core " << bound.vector_core;
                EXPECT_GE(bound.value(), km.critical_path);
            }
        }
    }
    EXPECT_GE(checked, 200);
}

struct PaperCase {
    const char* name;
    ir::Graph (*build)();
    int bound;
    int MakespanBound::*term;
};

ir::Graph matmul() { return apps::build_matmul(); }
ir::Graph qrd() { return apps::build_qrd(); }
ir::Graph arf() { return apps::build_arf(); }
ir::Graph detect() { return apps::build_detect(); }

TEST(MakespanBound, PaperKernelsMeetTheirHeuristicMakespan) {
    const PaperCase cases[] = {
        {"MATMUL", matmul, 11, &MakespanBound::index_merge},
        {"QRD", qrd, 142, &MakespanBound::critical_path},
        {"ARF", arf, 57, &MakespanBound::vector_core},
        {"DETECT", detect, 34, &MakespanBound::index_merge},
    };
    for (const PaperCase& c : cases) {
        const ir::Graph g = ir::merge_pipeline_ops(c.build());
        const KernelModel km = sched::lower_for_schedule(g);
        const MakespanBound bound = makespan_lower_bound(km);
        EXPECT_EQ(bound.value(), c.bound) << c.name;
        EXPECT_EQ(bound.*c.term, c.bound) << c.name << ": the term that sets it";

        sched::ScheduleOptions heur;
        heur.heuristic_only = true;
        EXPECT_EQ(sched::schedule_kernel(g, heur).makespan, c.bound) << c.name;
    }
}

TEST(MakespanBound, HorizonDoesNotMoveIt) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_arf());
    const KernelModel km = sched::lower_for_schedule(g);
    const KernelModel wide = with_horizon(km, km.horizon + 17);
    EXPECT_EQ(makespan_lower_bound(wide).value(), makespan_lower_bound(km).value());
}

TEST(MakespanBound, DetectClosesAtTheRoot) {
    const arch::ArchSpec spec = arch::ArchSpec::eit();
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_detect());
    const sched::Schedule s = sched::schedule_kernel(g);
    ASSERT_EQ(s.status, cp::SolveStatus::Optimal);
    EXPECT_EQ(s.makespan, 34);
    EXPECT_EQ(s.stats.nodes, 0);
    EXPECT_TRUE(s.bound_closed);
    EXPECT_EQ(s.lower_bound, 34);
    EXPECT_TRUE(s.workers.empty());  // no search ran
    const std::vector<std::string> problems = sched::verify_schedule(spec, g, s);
    ASSERT_TRUE(problems.empty()) << problems.front();

    const codegen::MachineProgram prog = codegen::generate_code(spec, g, s);
    const sim::SimResult run = sim::simulate(spec, g, prog);
    EXPECT_TRUE(run.outputs_match) << "max err " << run.max_output_error;
    EXPECT_TRUE(run.violations.empty()) << run.violations.front();
    EXPECT_EQ(run.cycles, 34);
}

}  // namespace
}  // namespace revec::model
