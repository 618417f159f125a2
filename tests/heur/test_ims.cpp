// Iterative modulo scheduling: the greedy kernel must obey the same rules
// as the exact modulo model (per-residue resource tables with non-wrapping
// durations, one configuration per start residue, flat precedence with
// eq. 4 data starts), and its II is a feasible upper bound at or above the
// resource lower bound.
#include "revec/heur/ims.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/detect.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/kernel_model.hpp"

namespace revec::heur {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

void expect_valid_kernel(const ir::Graph& g, const ImsResult& r) {
    ASSERT_TRUE(r.ok);
    ASSERT_GE(r.ii, 1);

    // s = II*k + m and flat precedence / eq. 4.
    for (const ir::Node& node : g.nodes()) {
        const auto i = static_cast<std::size_t>(node.id);
        if (node.is_op()) {
            EXPECT_EQ(r.start[i], r.ii * r.stage[i] + r.residue[i]);
            EXPECT_GE(r.residue[i], 0);
            EXPECT_LT(r.residue[i], r.ii);
        } else {
            EXPECT_EQ(r.residue[i], -1);
        }
        const ir::NodeTiming t = ir::node_timing(kSpec, node);
        for (const int succ : g.succs(node.id)) {
            const auto j = static_cast<std::size_t>(succ);
            if (g.node(succ).is_data()) {
                EXPECT_EQ(r.start[j], r.start[i] + t.latency);
            } else {
                EXPECT_GE(r.start[j], r.start[i] + t.latency);
            }
        }
    }

    // Residue resource tables, mirroring the modulo emission: durations
    // extend past the kernel without wrapping.
    std::map<int, int> lanes;
    std::map<int, int> scalar;
    std::map<int, int> ixmerge;
    std::map<int, std::string> config;
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op()) continue;
        const ir::NodeTiming t = ir::node_timing(kSpec, node);
        const int m = r.residue[static_cast<std::size_t>(node.id)];
        if (t.lanes > 0) {
            const auto [it, inserted] = config.emplace(m, ir::config_key(node));
            EXPECT_TRUE(inserted || it->second == ir::config_key(node))
                << "two configurations share residue " << m;
            for (int d = 0; d < t.duration; ++d) lanes[m + d] += t.lanes;
        } else if (node.cat == ir::NodeCat::ScalarOp) {
            for (int d = 0; d < t.duration; ++d) scalar[m + d] += 1;
        } else {
            for (int d = 0; d < t.duration; ++d) ixmerge[m + d] += 1;
        }
    }
    for (const auto& [m, used] : lanes) EXPECT_LE(used, kSpec.vector_lanes) << "residue " << m;
    for (const auto& [m, used] : scalar) EXPECT_LE(used, kSpec.scalar_units);
    for (const auto& [m, used] : ixmerge) EXPECT_LE(used, kSpec.index_merge_units);
}

TEST(Ims, AppKernelsProduceValidKernels) {
    const ir::Graph kernels[] = {
        ir::merge_pipeline_ops(apps::build_matmul()), ir::merge_pipeline_ops(apps::build_qrd()),
        ir::merge_pipeline_ops(apps::build_arf()), ir::merge_pipeline_ops(apps::build_detect())};
    for (const ir::Graph& g : kernels) {
        const model::KernelModel km = model::lower_ir(kSpec, g);
        ImsOptions opts;
        opts.min_ii = model::modulo_ii_lower_bound(km);
        const ImsResult r = iterative_modulo_schedule(km, opts);
        expect_valid_kernel(g, r);
        EXPECT_GE(r.ii, opts.min_ii) << g.name();
    }
}

TEST(Ims, MatmulHitsTheResourceLowerBound) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    const model::KernelModel km = model::lower_ir(kSpec, g);
    ImsOptions opts;
    opts.min_ii = model::modulo_ii_lower_bound(km);
    const ImsResult r = iterative_modulo_schedule(km, opts);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.ii, opts.min_ii);
}

TEST(Ims, RandomKernelsProduceValidKernels) {
    for (unsigned seed = 1; seed <= 10; ++seed) {
        apps::RandomKernelOptions kopts;
        kopts.seed = seed;
        const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));
        const model::KernelModel km = model::lower_ir(kSpec, g);
        ImsOptions opts;
        opts.min_ii = model::modulo_ii_lower_bound(km);
        const ImsResult r = iterative_modulo_schedule(km, opts);
        expect_valid_kernel(g, r);
    }
}

TEST(Ims, MaxIiExhaustionFailsCleanly) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    ImsOptions opts;
    opts.min_ii = 1;
    opts.max_ii = 1;  // matmul's lane demand needs more than one residue
    const ImsResult r = iterative_modulo_schedule(model::lower_ir(kSpec, g), opts);
    EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace revec::heur
