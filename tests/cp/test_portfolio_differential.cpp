// Differential gate for the parallel portfolio solver: on a corpus of
// generated scheduling models it must return the same optimal objective and
// the same status as the sequential branch-and-bound at 1, 2, and 4
// threads, and a 1-thread portfolio must be cp::solve itself (identical
// node and failure counts).
#include "revec/cp/portfolio.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "portfolio_models.hpp"
#include "revec/cp/search.hpp"

namespace revec::cp {
namespace {

using testing::Instance;
using testing::pigeonhole_unsat;
using testing::random_rcpsp;
using testing::run_portfolio;

SolveResult solve_sequentially(const Instance& build) {
    Store store;
    const PostedModel m = build(store);
    return solve(store, m.phases, m.objective);
}

void expect_differential_match(const Instance& build, const std::string& tag) {
    const SolveResult seq = solve_sequentially(build);
    // The corpus runs without a deadline, so the sequential outcome is a
    // proof either way.
    ASSERT_TRUE(seq.status == SolveStatus::Optimal || seq.status == SolveStatus::Unsat) << tag;

    Store ref;
    const PostedModel m = build(ref);
    const std::int64_t seq_obj =
        seq.has_solution() ? seq.value_of(m.objective) : -1;

    for (const int threads : {1, 2, 4}) {
        SolverConfig cfg;
        cfg.threads = threads;
        cfg.seed = 0xC0FFEEu;
        const PortfolioResult par = run_portfolio(build, cfg);
        ASSERT_EQ(par.status, seq.status) << tag << " threads=" << threads;
        ASSERT_EQ(par.has_solution(), seq.has_solution()) << tag << " threads=" << threads;
        if (seq.has_solution()) {
            EXPECT_EQ(par.value_of(m.objective), seq_obj) << tag << " threads=" << threads;
        }
        if (threads == 1) {
            // One worker with jitter seed 0 is one cp::solve call, so the
            // tree — not just the answer — matches it.
            EXPECT_EQ(par.stats.nodes, seq.stats.nodes) << tag;
            EXPECT_EQ(par.stats.failures, seq.stats.failures) << tag;
            EXPECT_EQ(par.stats.solutions, seq.stats.solutions) << tag;
            EXPECT_EQ(par.best, seq.best) << tag;
            ASSERT_EQ(par.workers.size(), 1u) << tag;
            EXPECT_EQ(par.workers[0].jitter_seed, 0u) << tag;
        }
    }
}

TEST(PortfolioDifferential, RandomCorpusMatchesSequential) {
    // >= 20 generated instances across sizes and capacities. Sizes are
    // kept small: unlike the scheduling models, these instances carry no
    // redundant constraints, so their plain branch-and-bound trees blow up
    // quickly with task count.
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        expect_differential_match(random_rcpsp(seed, 7, 3),
                                  "rcpsp-7/" + std::to_string(seed));
    }
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
        expect_differential_match(random_rcpsp(0x100u + seed, 8, 2),
                                  "rcpsp-8/" + std::to_string(seed));
    }
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
        expect_differential_match(random_rcpsp(0x200u + seed, 9, 4),
                                  "rcpsp-9/" + std::to_string(seed));
    }
}

TEST(PortfolioDifferential, UnsatInstancesAgree) {
    for (const int n : {5, 6, 7}) {
        expect_differential_match(pigeonhole_unsat(n), "pigeonhole/" + std::to_string(n));
    }
}

TEST(PortfolioDifferential, SatisfactionProblemsAgree) {
    // Invalid objective = first-solution search; every thread count must
    // report a solution (contents may differ across workers, existence and
    // status may not).
    const Instance build = [](Store& s) -> PostedModel {
        std::vector<IntVar> xs;
        for (int i = 0; i < 6; ++i) xs.push_back(s.new_var(0, 6));
        for (int i = 0; i + 1 < 6; ++i) {
            post_not_equal(s, xs[static_cast<std::size_t>(i)],
                           xs[static_cast<std::size_t>(i) + 1]);
        }
        PostedModel m;
        m.phases.push_back({xs, VarSelect::InputOrder, ValSelect::Min, "xs"});
        return m;  // no objective
    };
    Store ref;
    const PostedModel m = build(ref);
    const SolveResult seq = satisfy(ref, m.phases);
    ASSERT_EQ(seq.status, SolveStatus::Optimal);
    for (const int threads : {1, 2, 4}) {
        SolverConfig cfg;
        cfg.threads = threads;
        const PortfolioResult par = run_portfolio(build, cfg);
        EXPECT_EQ(par.status, SolveStatus::Optimal) << threads;
        EXPECT_TRUE(par.has_solution()) << threads;
    }
}

/// A propagator that prunes nothing and counts how often it is cloned: one
/// posted into a model counts the Store::clone calls made of it.
class CloneCounter final : public Propagator {
public:
    explicit CloneCounter(std::atomic<int>& clones) : clones_(clones) {}
    bool propagate(Store&) override { return true; }
    std::unique_ptr<Propagator> clone() const override {
        ++clones_;
        return std::make_unique<CloneCounter>(*this);
    }

private:
    std::atomic<int>& clones_;
};

TEST(PortfolioDifferential, OneEmissionServesEveryWorker) {
    // Worker 0 searches the caller's emission and every further worker a
    // clone of it, N-1 clones in all: whatever the thread count, the solve
    // leaves the caller's store at root level with its variables and
    // propagators as emitted, and the reported assignment indexes that store.
    const Instance model = random_rcpsp(3, 8, 3);
    Store ref;
    const PostedModel ref_model = model(ref);
    const SolveResult seq = solve(ref, ref_model.phases, ref_model.objective);
    ASSERT_EQ(seq.status, SolveStatus::Optimal);
    for (const int threads : {1, 2, 4}) {
        Store store;
        const PostedModel posted = model(store);
        std::atomic<int> clones{0};
        store.post(std::make_unique<CloneCounter>(clones), std::vector<IntVar>{});
        const std::size_t vars = store.num_vars();
        const std::size_t props = store.num_propagators();
        SolverConfig cfg;
        cfg.threads = threads;
        const PortfolioResult r = solve_portfolio(store, posted, cfg);
        ASSERT_EQ(r.status, SolveStatus::Optimal) << threads;
        EXPECT_EQ(clones.load(), threads - 1) << threads;
        ASSERT_EQ(r.best.size(), vars) << threads;
        EXPECT_EQ(r.value_of(posted.objective), seq.value_of(ref_model.objective)) << threads;
        EXPECT_EQ(store.level(), 0) << threads;
        EXPECT_EQ(store.num_vars(), vars) << threads;
        EXPECT_EQ(store.num_propagators(), props) << threads;
        // The assignment satisfies every constraint of the caller's store.
        store.push_level();
        bool ok = true;
        for (std::size_t v = 0; v < vars; ++v) {
            ok = ok && store.assign(IntVar(static_cast<std::int32_t>(v)), r.best[v]);
        }
        EXPECT_TRUE(ok && store.propagate()) << threads;
        store.pop_level();
    }
}

TEST(PortfolioDifferential, MergedStatsCoverAllWorkers) {
    const Instance build = random_rcpsp(11, 10, 3);
    SolverConfig cfg;
    cfg.threads = 4;
    const PortfolioResult r = run_portfolio(build, cfg);
    ASSERT_EQ(r.workers.size(), 4u);
    std::int64_t nodes = 0;
    for (const WorkerReport& w : r.workers) {
        EXPECT_EQ(w.config_index, static_cast<int>(&w - r.workers.data()));
        EXPECT_EQ(w.jitter_seed, worker_jitter_seed(w.config_index, cfg.seed));
        nodes += w.stats.nodes;
    }
    // The merged nodes are the workers' and nothing else's.
    EXPECT_EQ(r.stats.nodes, nodes);
    EXPECT_GE(r.winner, 0);
}

}  // namespace
}  // namespace revec::cp
