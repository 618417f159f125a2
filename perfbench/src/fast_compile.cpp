// fast_compile: heuristic-only compiles (revecc --heuristic-only) of a
// seeded draw of random kernels, through the same flow as paper_prove.
// The exact solver explores no nodes here; the DSL, IR, model, heuristic,
// codegen and simulator layers do all the work.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <numeric>
#include <random>

#include "flow.hpp"
#include "revec/apps/arf.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/support/assert.hpp"

namespace perfbench {

namespace {

// The kernel pool: kPoolSize random kernels generated from a fixed seed,
// so the pool -- and the draw a workload seed makes from it -- is the same
// for every version of the code under test. Vector-only kernels of 20-30
// ops: with matrix ops or 40-50 ops, the slot allocator's search takes
// 0.1-1 s on about one kernel in 200-1000, so the pass time of a draw
// swings up to 4x from seed to seed (README.md, "Why these inputs").
constexpr std::uint64_t kPoolSeed = 20150207;
constexpr int kPoolSize = 4000;
constexpr int kMinOps = 20;
constexpr int kMaxOps = 30;
// Kernels per pass, drawn from the pool without repetition.
constexpr int kKernels = 1000;

// Pool kernels (by kernel seed) whose check-clean heuristic schedule the
// simulator rejected ("premature reuse") when this benchmark was written.
// They are never timed. Every other pool kernel compiled correctly then,
// so any failure of a timed kernel is a regression and counts in `failed`.
constexpr unsigned kExcluded[] = {
    74804213,   217835755,  281242464,  416985769,  485630206,  774543256,
    889558886,  895741309,  973023834,  1060313963, 1126101968, 1217079772,
    1315998985, 1317061319, 1367204272, 1636383364, 1679398728, 1732610663,
    1878591953, 1921413637, 2137779217, 2264337507, 2340083576, 2474610765,
    2563145139, 2683925487, 2960134311, 3008021550, 3014606266, 3241923516,
    3413450715, 3483224095, 3485209154, 3494267169, 3821426853, 4075877813,
    4110775798, 4248851929,
};

std::vector<revec::apps::RandomKernelOptions> kernel_pool() {
    std::mt19937_64 rng(kPoolSeed);
    std::vector<revec::apps::RandomKernelOptions> pool(kPoolSize);
    for (revec::apps::RandomKernelOptions& o : pool) {
        o.seed = static_cast<unsigned>(rng() & 0xffffffffu);
        o.num_ops = kMinOps + static_cast<int>(rng() % (kMaxOps - kMinOps + 1));
        o.use_matrix = false;
    }
    return pool;
}

KernelSource source(const revec::apps::RandomKernelOptions& o) {
    return {"random(seed=" + std::to_string(o.seed) + ", num_ops=" + std::to_string(o.num_ops) +
                ")",
            [o] { return revec::apps::build_random_kernel(o); }};
}

class FastCompile final : public Workload {
public:
    explicit FastCompile(std::uint64_t seed) {
        static_assert(std::is_sorted(std::begin(kExcluded), std::end(kExcluded)));
        const auto pool = kernel_pool();
        // The first kKernels steps of a seeded Fisher-Yates shuffle.
        std::vector<std::size_t> order(pool.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::mt19937_64 rng(seed);
        for (std::size_t i = 0; i < kKernels; ++i) {
            std::swap(order[i], order[i + rng() % (order.size() - i)]);
            const revec::apps::RandomKernelOptions& o = pool[order[i]];
            if (!std::binary_search(std::begin(kExcluded), std::end(kExcluded), o.seed)) {
                kernels_.push_back(source(o));
                continue;
            }
            // Not timed; compiled once so the baseline share of the
            // simulator's rejections stays visible as inputs.known_bad.
            const CompileOutcome c = compile_kernel(source(o), true, nullptr);
            if (!c.error.empty()) ++known_bad_;
        }
    }

    void setup() override {
        // A fixed kernel, so set-up costs the same for every seed.
        const CompileOutcome warm =
            compile_kernel({"ARF", [] { return revec::apps::build_arf(); }}, true, nullptr);
        if (!warm.error.empty()) throw revec::Error("warm-up compile failed: " + warm.error);
    }

    PassResult run_pass(bool traced, HostProbe& probe) override {
        PassResult pass;
        Tracer* const tracer = traced ? &pass.layers : nullptr;
        for (const KernelSource& k : kernels_) {
            probe.between_ops();
            add_compile(pass, k.name, compile_kernel(k, true, tracer));
        }
        pass.exact["inputs.known_bad"] = known_bad_;
        return pass;
    }

private:
    std::vector<KernelSource> kernels_;
    int known_bad_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fast_compile(std::uint64_t seed) {
    return std::make_unique<FastCompile>(seed);
}

}  // namespace perfbench
