// Emission size pins: the number of variables and propagators emit_cp
// posts for QRD. Eq. 3 (one configuration per cycle, or per residue in the
// §4.3 modulo model) and its channel to the per-residue configuration
// variables are one propagator (cp::post_config_slots). Per-pair
// disequalities and per-(op, residue) reified booleans would make the
// modulo model 1 718 variables and 3 002 propagators, and the flat one 940
// propagators.
#include <gtest/gtest.h>

#include "revec/apps/qrd.hpp"
#include "revec/cp/store.hpp"
#include "revec/heur/list.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/model/kernel_model.hpp"
#include "revec/sched/model.hpp"

namespace revec::model {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

struct Size {
    std::size_t vars;
    std::size_t props;
};

Size emitted(const KernelModel& km) {
    cp::Store store;
    const VarTable t = emit_cp(store, km);
    EXPECT_FALSE(t.infeasible);
    return {store.num_vars(), store.num_propagators()};
}

TEST(EmitSize, QrdModuloAtTable3Optimum) {
    // II 18 is QRD's resource lower bound and the II of its Table 3
    // (reconfigurations included) optimum.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    const int horizon =
        2 * heur::priority_list_schedule(lower_ir(kSpec, g)).makespan + 2 * kSpec.vector_latency;
    const Size s = emitted(lower_ir(kSpec, g, {}, horizon, ModuloWrap{18, 0, true, 14}));
    EXPECT_EQ(s.vars, 278u);
    EXPECT_EQ(s.props, 251u);
}

TEST(EmitSize, BudgetContradictionEmitsNothing) {
    // QRD has four configurations, so R >= 4 and a budget of 3 is
    // infeasible before any variable exists.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    const KernelModel km = lower_ir(kSpec, g, {}, -1, ModuloWrap{19, 0, true, 3});
    ASSERT_EQ(modulo_reconfig_floor(km), 4);
    cp::Store store;
    EXPECT_TRUE(emit_cp(store, km).infeasible);
    EXPECT_EQ(store.num_vars(), 0u);
    EXPECT_EQ(store.num_propagators(), 0u);
}

TEST(EmitSize, QrdFlat) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    const Size s = emitted(sched::lower_for_schedule(g, sched::ScheduleOptions{}));
    EXPECT_EQ(s.vars, 323u);
    EXPECT_EQ(s.props, 349u);
}

}  // namespace
}  // namespace revec::model
