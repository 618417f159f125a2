// Node-parity replay: the shared lower_ir + emit_cp path must produce CP
// stores whose branch-and-bound runs replay the frozen pre-refactor
// builders' search trees node for node — identical node/failure counts,
// identical status, and identical best solutions — on the application
// kernels, random kernels, and hole-heavy probes near the Table 1 memory
// cliff, for both the flat §3.3-§3.5 model and the §4.3 modulo model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "legacy_ref.hpp"
#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/schedule.hpp"
#include "revec/support/assert.hpp"

namespace revec::model {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

ir::Graph kernel_by_name(const std::string& name) {
    if (name == "matmul") return ir::merge_pipeline_ops(apps::build_matmul());
    if (name == "qrd") return ir::merge_pipeline_ops(apps::build_qrd());
    if (name == "arf") return ir::merge_pipeline_ops(apps::build_arf());
    if (name.rfind("rand", 0) == 0) {
        apps::RandomKernelOptions kopts;
        kopts.seed = static_cast<unsigned>(std::stoi(name.substr(4)));
        kopts.num_ops = 20 + static_cast<int>(kopts.seed % 5) * 5;
        return ir::merge_pipeline_ops(apps::build_random_kernel(kopts));
    }
    throw revec::Error("unknown kernel " + name);
}

/// The horizon both lowerings are handed (mirrors sched's derivation for
/// the unit-duration EIT spec; any shared value preserves the parity).
int horizon_for(const ir::Graph& g) {
    const sched::ListScheduleResult greedy = sched::list_schedule(kSpec, g);
    return std::max(ir::critical_path_length(kSpec, g), greedy.makespan) +
           2 * kSpec.vector_latency;
}

// ---------------------------------------------------------------- flat ----

struct FlatCase {
    const char* kernel;
    int num_slots;       // -1 = full memory
    bool memory;
    bool three_phase;
    const char* tag;
};

void PrintTo(const FlatCase& c, std::ostream* os) {
    *os << c.kernel << "_" << c.tag;
}

class FlatNodeParity : public ::testing::TestWithParam<FlatCase> {};

TEST_P(FlatNodeParity, ReplaysLegacySearchTree) {
    const FlatCase& c = GetParam();
    const ir::Graph g = kernel_by_name(c.kernel);
    const int num_slots = c.num_slots < 0 ? kSpec.memory.slots() : c.num_slots;
    const int horizon = horizon_for(g);

    sched::ScheduleOptions options;
    options.memory_allocation = c.memory;
    options.three_phase_search = c.three_phase;

    cp::Store old_store;
    const legacy::BuiltModel old_model =
        legacy::build_model(old_store, g, options, num_slots, horizon);
    const cp::SolveResult old_result =
        cp::solve(old_store, old_model.phases, old_model.objective);

    LowerOptions lo;
    lo.num_slots = num_slots;
    lo.horizon = horizon;
    lo.memory_allocation = c.memory;
    lo.three_phase_search = c.three_phase;
    cp::Store new_store;
    const KernelModel km = lower_ir(kSpec, g, lo);
    const VarTable new_model = emit_cp(new_store, km);
    const cp::SolveResult new_result =
        cp::solve(new_store, new_model.phases, new_model.makespan);

    // The acceptance criterion: the search trees replay node for node.
    EXPECT_EQ(new_result.status, old_result.status);
    EXPECT_EQ(new_result.stats.nodes, old_result.stats.nodes);
    EXPECT_EQ(new_result.stats.failures, old_result.stats.failures);
    EXPECT_EQ(new_result.stats.solutions, old_result.stats.solutions);

    ASSERT_EQ(new_result.has_solution(), old_result.has_solution());
    if (!new_result.has_solution()) return;

    EXPECT_EQ(new_result.value_of(new_model.makespan),
              old_result.value_of(old_model.objective));
    for (const ir::Node& node : g.nodes()) {
        const auto i = static_cast<std::size_t>(node.id);
        EXPECT_EQ(new_result.value_of(new_model.start[i]),
                  old_result.value_of(old_model.start[i]))
            << "start of node " << node.id;
    }
    ASSERT_EQ(new_model.slot_of.size(), old_model.slot_of.size());
    for (const auto& [d, var] : new_model.slot_of) {
        EXPECT_EQ(new_result.value_of(var), old_result.value_of(old_model.slot_of.at(d)))
            << "slot of node " << d;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, FlatNodeParity,
    ::testing::Values(
        FlatCase{"matmul", -1, true, true, "default"},
        FlatCase{"matmul", -1, true, false, "one_phase"},
        FlatCase{"matmul", -1, false, true, "no_memory"},
        FlatCase{"matmul", 12, true, true, "slots12"},
        FlatCase{"qrd", -1, true, true, "default"},
        // Hole-heavy probes at the Table 1 memory cliff: 9 slots is the
        // tightest feasible allocation, 7 is proven UNSAT — both sides
        // must walk the identical (larger) trees.
        FlatCase{"qrd", 9, true, true, "slots9"},
        FlatCase{"qrd", 7, true, true, "slots7_unsat"},
        FlatCase{"arf", -1, true, true, "default"},
        FlatCase{"rand3", -1, true, true, "default"},
        FlatCase{"rand11", -1, true, true, "default"},
        FlatCase{"rand11", -1, true, false, "one_phase"}),
    [](const ::testing::TestParamInfo<FlatCase>& info) {
        return std::string(info.param.kernel) + "_" + info.param.tag;
    });

// -------------------------------------------------------------- modulo ----

struct ModuloCase {
    const char* kernel;
    int ii_delta;   // candidate II = ii_lower_bound + delta
    bool minimize;
    int budget;     // reconfig budget when minimizing
    const char* tag;
};

void PrintTo(const ModuloCase& c, std::ostream* os) {
    *os << c.kernel << "_" << c.tag;
}

class ModuloNodeParity : public ::testing::TestWithParam<ModuloCase> {};

TEST_P(ModuloNodeParity, ReplaysLegacySearchTree) {
    const ModuloCase& c = GetParam();
    const ir::Graph g = kernel_by_name(c.kernel);
    const int ii = pipeline::ii_lower_bound(kSpec, g) + c.ii_delta;
    const int horizon =
        2 * sched::list_schedule(kSpec, g).makespan + 2 * kSpec.vector_latency;

    cp::Store old_store;
    const legacy::ModuloModel old_model =
        legacy::build_modulo_model(old_store, kSpec, g, ii, horizon, c.minimize, c.budget);

    LowerOptions lo;
    lo.horizon = horizon;
    lo.modulo = ModuloWrap{ii, 0, c.minimize, c.budget};
    const KernelModel km = lower_ir(kSpec, g, lo);
    cp::Store new_store;
    const VarTable new_model = emit_cp(new_store, km);

    ASSERT_EQ(new_model.infeasible, old_model.infeasible);
    if (new_model.infeasible) return;  // budget contradiction: nothing to solve

    const cp::SolveResult old_result =
        c.minimize ? cp::solve(old_store, old_model.phases, old_model.reconfig_count)
                   : cp::satisfy(old_store, old_model.phases);
    const cp::SolveResult new_result =
        c.minimize ? cp::solve(new_store, new_model.phases, new_model.reconfig_count)
                   : cp::satisfy(new_store, new_model.phases);

    EXPECT_EQ(new_result.status, old_result.status);
    EXPECT_EQ(new_result.stats.nodes, old_result.stats.nodes);
    EXPECT_EQ(new_result.stats.failures, old_result.stats.failures);
    EXPECT_EQ(new_result.stats.solutions, old_result.stats.solutions);

    ASSERT_EQ(new_result.has_solution(), old_result.has_solution());
    if (!new_result.has_solution()) return;

    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op()) continue;
        const auto i = static_cast<std::size_t>(node.id);
        EXPECT_EQ(new_result.value_of(new_model.residue[i]),
                  old_result.value_of(old_model.residue[i]))
            << "residue of node " << node.id;
        EXPECT_EQ(new_result.value_of(new_model.stage[i]),
                  old_result.value_of(old_model.stage[i]))
            << "stage of node " << node.id;
    }
    if (c.minimize) {
        EXPECT_EQ(new_result.value_of(new_model.reconfig_count),
                  old_result.value_of(old_model.reconfig_count));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ModuloNodeParity,
    ::testing::Values(ModuloCase{"matmul", 0, false, 0, "lb"},
                      ModuloCase{"matmul", 1, false, 0, "lb1"},
                      ModuloCase{"matmul", 0, true, 64, "min_r"},
                      ModuloCase{"matmul", 0, true, 1, "budget1"},
                      ModuloCase{"arf", 0, false, 0, "lb"},
                      ModuloCase{"arf", 1, true, 64, "min_r"},
                      // ARF has two vector configurations, so a budget of 1
                      // contradicts the redundant lower bound while the
                      // model is still being built — on both sides.
                      ModuloCase{"arf", 0, true, 1, "budget1_infeasible"},
                      ModuloCase{"rand7", 0, false, 0, "lb"}),
    [](const ::testing::TestParamInfo<ModuloCase>& info) {
        return std::string(info.param.kernel) + "_" + info.param.tag;
    });

}  // namespace
}  // namespace revec::model
