#include <time.h>

#include <algorithm>
#include <map>
#include <memory_resource>
#include <random>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {

// Probe CPU time kept up with, as a share of the process's other CPU time.
constexpr double kShare = 0.1;
// A chunk's CPU time on an idle host of the 4-core VM the benchmark was
// tuned on (the fastest 5% of chunks there).
constexpr double kIdleChunkMs = 11.4;
// The chunk's private memory: it needs about 2.5 MB.
constexpr std::size_t kArenaBytes = 8u << 20;

double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

volatile std::uint64_t probe_sink;

}  // namespace

HostProbe::HostProbe() : cpu0_ms_(process_cpu_ms()), arena_(new std::byte[kArenaBytes]) {}

void HostProbe::between_ops() {
    while (probe_ms_ < kShare * (process_cpu_ms() - cpu0_ms_ - probe_ms_)) {
        const double ms = chunk_ms();
        chunk_ms_.push_back(ms);
        probe_ms_ += ms;
    }
}

double HostProbe::slowdown() const {
    if (chunk_ms_.empty()) return 1.0;
    std::vector<double> v = chunk_ms_;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2] / kIdleChunkMs;
}

/// One chunk: a fixed piece of code that never calls the library under
/// test -- a tree, a sort and a hash table over a few MB, allocated from a
/// private arena so the program's allocator does not enter. Returns its
/// thread CPU time in ms.
double HostProbe::chunk_ms() {
    const double t0 = thread_cpu_ms();
    std::pmr::monotonic_buffer_resource mem(arena_.get(), kArenaBytes,
                                            std::pmr::null_memory_resource());
    std::mt19937 rng(17);
    std::pmr::map<std::uint32_t, std::uint32_t> tree(&mem);
    for (std::uint32_t i = 0; i < 20000; ++i) tree[rng() % 16384] += i;
    std::uint64_t s = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto it = tree.find(rng() % 16384);
        if (it != tree.end()) s += it->second;
    }
    std::pmr::vector<std::uint32_t> v(40000, &mem);
    for (std::uint32_t& x : v) x = rng();
    std::sort(v.begin(), v.end());
    std::pmr::unordered_map<std::uint32_t, std::uint32_t> table(&mem);
    for (int i = 0; i < 30000; ++i) table[rng() % 65536] += 1;
    for (int i = 0; i < 30000; ++i) {
        const auto it = table.find(rng() % 65536);
        if (it != table.end()) s += it->second;
    }
    probe_sink = s + v[100];
    return thread_cpu_ms() - t0;
}

}  // namespace perfbench
