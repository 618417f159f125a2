#include "revec/pipeline/modulo.hpp"

#include <gtest/gtest.h>

#include <map>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/heur/list.hpp"
#include "revec/ir/analysis.hpp"
#include "revec/ir/passes.hpp"

namespace revec::pipeline {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

// Independent kernel validity check: in every residue class, lane capacity
// and configuration uniqueness hold; flat starts respect dependences.
void expect_valid_modulo(const ir::Graph& g, const ModuloResult& r) {
    ASSERT_TRUE(r.feasible());
    const int ii = r.initial_ii;
    std::map<int, int> lanes_at;
    std::map<int, std::string> config_at;
    std::map<int, int> scalar_at;
    std::map<int, int> ix_at;
    std::vector<int> flat(static_cast<std::size_t>(g.num_nodes()), 0);
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op()) continue;
        const auto i = static_cast<std::size_t>(node.id);
        ASSERT_GE(r.residue[i], 0);
        ASSERT_LT(r.residue[i], ii);
        ASSERT_GE(r.stage[i], 0);
        flat[i] = r.stage[i] * ii + r.residue[i];
        const ir::NodeTiming t = ir::node_timing(kSpec, node);
        if (t.lanes > 0) {
            lanes_at[r.residue[i]] += t.lanes;
            const auto [it, inserted] = config_at.emplace(r.residue[i], ir::config_key(node));
            EXPECT_TRUE(inserted || it->second == ir::config_key(node))
                << "config conflict at residue " << r.residue[i];
        } else if (node.cat == ir::NodeCat::ScalarOp) {
            ++scalar_at[r.residue[i]];
        } else {
            ++ix_at[r.residue[i]];
        }
    }
    for (const auto& [m, lanes] : lanes_at) EXPECT_LE(lanes, kSpec.vector_lanes) << m;
    for (const auto& [m, c] : scalar_at) EXPECT_LE(c, kSpec.scalar_units) << m;
    for (const auto& [m, c] : ix_at) EXPECT_LE(c, kSpec.index_merge_units) << m;

    // Flat dependences: data follows producer; consumers wait for latency.
    for (const ir::Node& node : g.nodes()) {
        if (!node.is_op()) continue;
        const int lat = ir::node_timing(kSpec, node).latency;
        for (const int d : g.succs(node.id)) {
            for (const int consumer : g.succs(d)) {
                EXPECT_GE(flat[static_cast<std::size_t>(consumer)],
                          flat[static_cast<std::size_t>(node.id)] + lat);
            }
        }
    }
}

TEST(IiLowerBound, MatmulIsFour) {
    // 16 same-config dot products over 4 lanes = 4; 4 merges on one unit = 4.
    EXPECT_EQ(model::modulo_ii_lower_bound(model::lower_ir(kSpec, apps::build_matmul())), 4);
}

TEST(IiLowerBound, CountsConfigsSeparately) {
    dsl::Program p("two_types");
    for (int i = 0; i < 2; ++i) {
        const auto a = p.in_vector(i, i, i, i);
        const auto b = p.in_vector(1, 1, 1, 1);
        p.mark_output(dsl::v_add(a, b));
        p.mark_output(dsl::v_mul(a, b));
    }
    // 2 adds (1 residue) + 2 muls (1 residue) = 2.
    EXPECT_EQ(model::modulo_ii_lower_bound(model::lower_ir(kSpec, p.ir())), 2);
}

TEST(CountKernelReconfigs, UniformConfigIsZero) {
    const ir::Graph g = apps::build_matmul();
    const ModuloOptions opts;
    const ModuloResult r = modulo_schedule(g, opts);
    ASSERT_TRUE(r.feasible());
    EXPECT_EQ(count_kernel_reconfigs(model::lower_ir(kSpec, g), r.residue, r.initial_ii), 0);
}

TEST(CountKernelReconfigs, CyclicCounting) {
    // Two ops with different configs at residues 0 and 2 of a 4-kernel:
    // the configuration flips twice per period.
    dsl::Program p("alt");
    const auto a = p.in_vector(1, 2, 3, 4);
    const auto b = p.in_vector(4, 3, 2, 1);
    p.mark_output(dsl::v_add(a, b));
    p.mark_output(dsl::v_mul(a, b));
    const ir::Graph& g = p.ir();
    std::vector<int> residue(static_cast<std::size_t>(g.num_nodes()), -1);
    for (const ir::Node& n : g.nodes()) {
        if (!n.is_op()) continue;
        residue[static_cast<std::size_t>(n.id)] = n.op == "v_add" ? 0 : 2;
    }
    EXPECT_EQ(count_kernel_reconfigs(model::lower_ir(kSpec, g), residue, 4), 2);
}

TEST(ModuloExcluded, MatmulMatchesPaper) {
    // Table 3 MATMUL: initial II = 4, actual II = 4, throughput 0.25.
    const ModuloResult r = modulo_schedule(apps::build_matmul());
    expect_valid_modulo(apps::build_matmul(), r);
    EXPECT_EQ(r.initial_ii, 4);
    EXPECT_EQ(r.reconfigs, 0);
    EXPECT_EQ(r.actual_ii, 4);
    EXPECT_DOUBLE_EQ(r.throughput, 0.25);
}

TEST(ModuloIncluded, MatmulUnchanged) {
    // Only one configuration exists: including reconfigurations changes
    // nothing (Table 3: "no reconfiguration is needed").
    ModuloOptions opts;
    opts.include_reconfigs = true;
    opts.timeout_ms = 30000;
    const ModuloResult r = modulo_schedule(apps::build_matmul(), opts);
    expect_valid_modulo(apps::build_matmul(), r);
    EXPECT_EQ(r.actual_ii, 4);
}

TEST(ModuloExcluded, ArfFindsKernel) {
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_arf());
    ModuloOptions opts;
    opts.timeout_ms = 60000;
    const ModuloResult r = modulo_schedule(g, opts);
    expect_valid_modulo(g, r);
    EXPECT_GE(r.initial_ii, model::modulo_ii_lower_bound(model::lower_ir(kSpec, g)));
    EXPECT_GT(r.reconfigs, 0);  // muls and adds alternate somewhere
    EXPECT_EQ(r.actual_ii, r.initial_ii + r.reconfigs * kSpec.reconfig_cycles);
}

TEST(ModuloIncluded, ArfImprovesActualIi) {
    // Table 3's core claim: optimizing reconfigurations inside the model
    // yields a better (or equal) actual II at higher solve cost.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_arf());
    ModuloOptions excl;
    excl.timeout_ms = 60000;
    const ModuloResult r_excl = modulo_schedule(g, excl);
    ModuloOptions incl;
    incl.include_reconfigs = true;
    incl.timeout_ms = 60000;
    const ModuloResult r_incl = modulo_schedule(g, incl);
    ASSERT_TRUE(r_excl.feasible());
    ASSERT_TRUE(r_incl.feasible());
    EXPECT_LE(r_incl.actual_ii, r_excl.actual_ii);
    EXPECT_GE(r_incl.throughput, r_excl.throughput);
}

TEST(Modulo, ThroughputIsInverseActualIi) {
    const ModuloResult r = modulo_schedule(apps::build_matmul());
    ASSERT_TRUE(r.feasible());
    EXPECT_DOUBLE_EQ(r.throughput, 1.0 / r.actual_ii);
}

TEST(Modulo, TimeoutReported) {
    // Cold solver: a zero deadline reports Timeout with no kernel.
    ModuloOptions opts;
    opts.timeout_ms = 0;
    opts.warm_start = false;
    const ModuloResult r = modulo_schedule(apps::build_matmul(), opts);
    EXPECT_EQ(r.status, cp::SolveStatus::Timeout);
}

TEST(Modulo, TimeoutWithWarmStartStillDeliversKernel) {
    // Warm start (default): the greedy IMS kernel stands in under a zero
    // deadline. For matmul it sits at the resource lower bound, so it is
    // even reported proven optimal without any exact search.
    ModuloOptions opts;
    opts.timeout_ms = 0;
    const ModuloResult r = modulo_schedule(apps::build_matmul(), opts);
    ASSERT_TRUE(r.feasible());
    EXPECT_GE(r.initial_ii, r.ii_lower_bound);
    EXPECT_FALSE(r.residue.empty());
}

TEST(Modulo, ScalarChainKernel) {
    // A chain of scalar ops: II bounded by the scalar unit (3 ops, cap 1).
    dsl::Program p("chain");
    const auto a = p.in_scalar(ir::Complex(4, 0));
    const auto b = dsl::s_sqrt(a);
    const auto c = dsl::s_mul(b, b);
    const auto d = dsl::s_add(c, a);
    p.mark_output(d);
    const ModuloResult r = modulo_schedule(p.ir());
    expect_valid_modulo(p.ir(), r);
    EXPECT_EQ(r.initial_ii, 3);
    EXPECT_EQ(r.reconfigs, 0);  // no vector ops at all
}

// ----------------------------------------------------- one lowering ----

/// The scan's flat-time horizon (modulo_schedule derives it the same way).
int scan_horizon(const model::KernelModel& base) {
    return 2 * heur::priority_list_schedule(base).makespan + 2 * kSpec.vector_latency;
}

TEST(ModuloScan, PerIiModelMatchesLowerIr) {
    // Each candidate II's model is the scan's one lowering with the wrap
    // attached; it must be the model lowering the graph again would build.
    const struct {
        ir::Graph g;
        std::vector<model::ModuloWrap> wraps;
    } cases[] = {
        {ir::merge_pipeline_ops(apps::build_qrd()),
         {model::ModuloWrap{18, 0, true, 14}, model::ModuloWrap{19, 0, false, 0}}},
        {ir::merge_pipeline_ops(apps::build_matmul()), {model::ModuloWrap{4, 0, true, 3}}},
    };
    for (const auto& c : cases) {
        const model::KernelModel base = model::lower_ir(kSpec, c.g);
        const int horizon = scan_horizon(base);
        for (const model::ModuloWrap& wrap : c.wraps) {
            const model::KernelModel scan = model::with_modulo(base, horizon, wrap);
            EXPECT_EQ(scan, model::lower_ir(kSpec, c.g, {}, horizon, wrap))
                << c.g.name() << " II " << wrap.ii;
            ASSERT_TRUE(scan.modulo.has_value());
            EXPECT_EQ(scan.modulo->max_stage, horizon / wrap.ii + 1);
        }
    }
}

/// modulo_ii_lower_bound + modulo_reconfig_floor * reconfig_cycles: no
/// modulo kernel of `m` has a smaller actual II (DESIGN §5m).
int actual_ii_bound(const model::KernelModel& m) {
    return model::modulo_ii_lower_bound(m) +
           model::modulo_reconfig_floor(m) * m.caps.reconfig_cycles;
}

TEST(ModuloHeuristicOnly, MatmulWithReconfigsMeetsTheBound) {
    // One configuration: the IMS kernel at II 4 meets the bound 4 + 0.
    ModuloOptions opts;
    opts.include_reconfigs = true;
    opts.heuristic_only = true;
    const ModuloResult r = modulo_schedule(apps::build_matmul(), opts);
    expect_valid_modulo(apps::build_matmul(), r);
    EXPECT_EQ(r.actual_ii, actual_ii_bound(model::lower_ir(kSpec, apps::build_matmul())));
    EXPECT_EQ(r.status, cp::SolveStatus::Optimal);
}

TEST(ModuloHeuristicOnly, QrdWithReconfigsFallsBackAboveTheBound) {
    // IMS reaches QRD's resource bound (II 18) but scatters its four
    // configurations: 33 against a bound of 18 + 4.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_qrd());
    ModuloOptions opts;
    opts.include_reconfigs = true;
    opts.heuristic_only = true;
    const ModuloResult r = modulo_schedule(g, opts);
    expect_valid_modulo(g, r);
    EXPECT_EQ(actual_ii_bound(model::lower_ir(kSpec, g)), 22);
    EXPECT_EQ(r.actual_ii, 33);
    EXPECT_EQ(r.status, cp::SolveStatus::HeuristicFallback);
}

TEST(ModuloBound, NeverExceedsAnOptimalScan) {
    // Random kernels, matrix ops on and off: every proven reconfiguration-
    // aware scan ends at or above the bound, counted both from the scan's
    // R and from the kernel's residues, and every exclusion scan starts at
    // or above the resource bound.
    int proven = 0;
    for (unsigned seed = 1; seed <= 40; ++seed) {
        apps::RandomKernelOptions kopts;
        kopts.seed = seed;
        kopts.num_ops = 20 + static_cast<int>(seed % 3) * 5;
        kopts.use_matrix = seed % 2 == 0;
        const ir::Graph g = ir::merge_pipeline_ops(apps::build_random_kernel(kopts));
        const model::KernelModel base = model::lower_ir(kSpec, g);

        ModuloOptions excl;
        excl.timeout_ms = 2000;
        const ModuloResult e = modulo_schedule(g, excl);
        if (e.feasible()) {
            EXPECT_GE(e.initial_ii, model::modulo_ii_lower_bound(base)) << "seed " << seed;
        }

        ModuloOptions incl = excl;
        incl.include_reconfigs = true;
        const ModuloResult r = modulo_schedule(g, incl);
        if (r.status != cp::SolveStatus::Optimal) continue;
        ++proven;
        EXPECT_GE(r.actual_ii, actual_ii_bound(base)) << "seed " << seed;
        EXPECT_GE(r.initial_ii +
                      count_kernel_reconfigs(base, r.residue, r.initial_ii) *
                          kSpec.reconfig_cycles,
                  actual_ii_bound(base))
            << "seed " << seed;
    }
    EXPECT_GE(proven, 30);
}

}  // namespace
}  // namespace revec::pipeline
