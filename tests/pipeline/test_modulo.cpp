#include "revec/pipeline/modulo.hpp"

#include <gtest/gtest.h>

#include <map>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
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
    EXPECT_EQ(ii_lower_bound(kSpec, apps::build_matmul()), 4);
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
    EXPECT_EQ(ii_lower_bound(kSpec, p.ir()), 2);
}

TEST(CountKernelReconfigs, UniformConfigIsZero) {
    const ir::Graph g = apps::build_matmul();
    const ModuloOptions opts;
    const ModuloResult r = modulo_schedule(g, opts);
    ASSERT_TRUE(r.feasible());
    EXPECT_EQ(count_kernel_reconfigs(kSpec, g, r.residue, r.initial_ii), 0);
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
    EXPECT_EQ(count_kernel_reconfigs(kSpec, g, residue, 4), 2);
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
    EXPECT_GE(r.initial_ii, ii_lower_bound(kSpec, g));
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

TEST(Modulo, LnsWorkersNeverRunInTheScan) {
    // LNS relaxes flat, unpinned schedules only: the scan runs no LNS
    // workers at any thread count, so asking for one changes nothing (and
    // never trips the portfolio's lns_round precondition). Cold, so the
    // exact per-II search actually runs.
    const ir::Graph g = apps::build_matmul();
    for (const int threads : {1, 2}) {
        ModuloOptions plain;
        plain.warm_start = false;
        plain.timeout_ms = 30000;
        plain.solver.threads = threads;
        ModuloOptions with_lns = plain;
        with_lns.solver.lns_workers = 1;
        const ModuloResult a = modulo_schedule(g, plain);
        const ModuloResult b = modulo_schedule(g, with_lns);
        expect_valid_modulo(g, b);
        EXPECT_EQ(b.status, a.status) << threads;
        EXPECT_EQ(b.initial_ii, a.initial_ii) << threads;
        if (threads == 1) {
            EXPECT_EQ(b.residue, a.residue);
            EXPECT_EQ(b.stage, a.stage);
            EXPECT_EQ(b.stats.nodes, a.stats.nodes);
        }
    }
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

}  // namespace
}  // namespace revec::pipeline
