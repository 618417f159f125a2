// Store::clone is a faithful copy of a root-level store: solving a clone
// walks exactly the tree solving the original walks (status, search
// counters, assignment and every engine counter), on the random CSP corpus
// of the engine golden suite and on the scheduler's own emissions (flat
// MATMUL/QRD/ARF, Table 3 modulo QRD/ARF). Clones share no state with the
// original or with each other, and one const store can be cloned from
// several threads at once — what the portfolio workers do.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "random_csp.hpp"
#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/cp/search.hpp"
#include "revec/cp/store.hpp"
#include "revec/heur/list.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/emit_cp.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"

namespace revec::cp {
namespace {

const arch::ArchSpec kSpec = arch::ArchSpec::eit();

/// A store emitted at root level plus how to search it.
struct Emitted {
    std::string name;
    Store store;
    std::vector<Phase> phases;
    IntVar objective;
};

std::vector<Emitted> random_csps() {
    std::vector<Emitted> out;
    for (unsigned seed = 0; seed < 80; ++seed) {
        Emitted e;
        e.name = "csp-" + std::to_string(seed);
        const testing::Model m = testing::make_builder(seed)(e.store);
        e.phases = {Phase{m.xs, VarSelect::MinDomain, ValSelect::Min, ""}};
        e.objective = m.objective;
        out.push_back(std::move(e));
    }
    return out;
}

ir::Graph kernel(const std::string& name) {
    if (name == "matmul") return ir::merge_pipeline_ops(apps::build_matmul());
    if (name == "qrd") return ir::merge_pipeline_ops(apps::build_qrd());
    return ir::merge_pipeline_ops(apps::build_arf());
}

Emitted emit(const std::string& name, const model::KernelModel& km, bool modulo) {
    Emitted e;
    e.name = name;
    model::VarTable vt = model::emit_cp(e.store, km);
    EXPECT_FALSE(vt.infeasible) << name;
    e.phases = std::move(vt.phases);
    e.objective = modulo ? vt.reconfig_count : vt.makespan;
    return e;
}

/// The flat §3.5 models, and the reconfiguration-aware Table 3 models of
/// QRD (II 18, budget 14) and ARF (II one above its bound).
std::vector<Emitted> kernel_emissions() {
    std::vector<Emitted> out;
    for (const char* name : {"matmul", "qrd", "arf"}) {
        const model::KernelModel km =
            sched::lower_for_schedule(kernel(name), sched::ScheduleOptions{});
        out.push_back(emit(std::string(name) + "-flat", km, false));
    }
    for (const auto& [name, ii_delta, budget] :
         {std::tuple{"qrd", 0, 14}, std::tuple{"arf", 1, 64}}) {
        const model::KernelModel base = model::lower_ir(kSpec, kernel(name));
        const int horizon =
            2 * heur::priority_list_schedule(base).makespan + 2 * kSpec.vector_latency;
        const model::ModuloWrap wrap{model::modulo_ii_lower_bound(base) + ii_delta, 0, true,
                                     budget};
        out.push_back(emit(std::string(name) + "-table3",
                           model::with_modulo(base, horizon, wrap), true));
    }
    return out;
}

void expect_same_solve(const SolveResult& got, const SolveResult& want, const std::string& tag) {
    EXPECT_EQ(got.status, want.status) << tag;
    EXPECT_EQ(got.stats.nodes, want.stats.nodes) << tag;
    EXPECT_EQ(got.stats.failures, want.stats.failures) << tag;
    EXPECT_EQ(got.stats.solutions, want.stats.solutions) << tag;
    EXPECT_EQ(got.stats.cutoff_prunes, want.stats.cutoff_prunes) << tag;
    EXPECT_EQ(got.best, want.best) << tag;
    PropagationStats::for_each_field(
        [&tag](const char* field, MergeRule, const std::int64_t& a, const std::int64_t& b) {
            EXPECT_EQ(a, b) << tag << " engine." << field;
        },
        got.prop_stats, want.prop_stats);
}

/// Solve a clone first, then the original: same tree, and the clone's
/// solve leaves the original untouched.
void expect_clone_solves_alike(Emitted& e) {
    Store copy = e.store.clone();
    EXPECT_EQ(copy.num_vars(), e.store.num_vars()) << e.name;
    EXPECT_EQ(copy.num_propagators(), e.store.num_propagators()) << e.name;
    const SolveResult from_copy = solve(copy, e.phases, e.objective);
    const SolveResult from_original = solve(e.store, e.phases, e.objective);
    expect_same_solve(from_copy, from_original, e.name);
}

TEST(Store, CloneSolvesLikeTheOriginal) {
    for (Emitted& e : random_csps()) expect_clone_solves_alike(e);
    for (Emitted& e : kernel_emissions()) expect_clone_solves_alike(e);
}

TEST(Store, ConcurrentClonesOfOneStoreSolveAlike) {
    std::vector<Emitted> cases = kernel_emissions();
    for (Emitted& e : random_csps()) {
        if (e.name == "csp-24" || e.name == "csp-62") cases.push_back(std::move(e));
    }
    for (const Emitted& e : cases) {
        const Store& base = e.store;
        Store ref_store = base.clone();
        const SolveResult ref = solve(ref_store, e.phases, e.objective);
        std::vector<SolveResult> got(4);
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < got.size(); ++t) {
            threads.emplace_back([&, t] {
                Store own = base.clone();
                got[t] = solve(own, e.phases, e.objective);
            });
        }
        for (std::thread& th : threads) th.join();
        for (std::size_t t = 0; t < got.size(); ++t) {
            expect_same_solve(got[t], ref, e.name + " thread " + std::to_string(t));
        }
    }
}

TEST(Store, CloneIsIndependentOfTheOriginal) {
    Store s;
    const IntVar x = s.new_var(0, 9);
    const IntVar y = s.new_var(0, 9);
    post_linear_leq(s, {{1, x}, {-1, y}}, -3);  // x + 3 <= y
    Store copy = s.clone();
    ASSERT_TRUE(copy.assign(y, 5));
    ASSERT_TRUE(copy.propagate());
    EXPECT_EQ(copy.max(x), 2);
    // The original still has its own pending queue and untouched domains.
    EXPECT_EQ(s.max(y), 9);
    EXPECT_EQ(s.max(x), 9);
    ASSERT_TRUE(s.propagate());
    EXPECT_EQ(s.max(x), 6);
    EXPECT_EQ(s.min(y), 3);
    EXPECT_EQ(copy.max(x), 2);
}

TEST(Store, CloneRequiresRootLevel) {
    Store s;
    s.new_var(0, 3);
    s.push_level();
    EXPECT_THROW(static_cast<void>(s.clone()), ContractViolation);
    s.pop_level();
    EXPECT_EQ(s.clone().num_vars(), 1u);
}

}  // namespace
}  // namespace revec::cp
