#include "revec/arch/spec.hpp"

#include <cstdint>

#include "revec/support/assert.hpp"

namespace revec::arch {

ArchSpec ArchSpec::eit() {
    ArchSpec spec;  // defaults are the EIT instance
    spec.validate();
    return spec;
}

void ArchSpec::validate() const {
    const auto require = [](bool cond, const char* what) {
        if (!cond) throw Error(std::string("invalid ArchSpec: ") + what);
    };
    require(vector_lanes > 0, "vector_lanes must be positive");
    require(vector_length > 0, "vector_length must be positive");
    require(pipeline_stages > 0, "pipeline_stages must be positive");
    const auto timing = [](int cycles) { return cycles > 0 && cycles <= kMaxLatency; };
    require(timing(vector_latency), "vector_latency must be in [1, kMaxLatency]");
    require(timing(vector_duration), "vector_duration must be in [1, kMaxLatency]");
    require(scalar_units > 0, "scalar_units must be positive");
    require(timing(scalar_latency), "scalar_latency must be in [1, kMaxLatency]");
    require(timing(scalar_duration), "scalar_duration must be in [1, kMaxLatency]");
    require(index_merge_units > 0, "index_merge_units must be positive");
    require(timing(index_merge_latency), "index_merge_latency must be in [1, kMaxLatency]");
    require(timing(index_merge_duration), "index_merge_duration must be in [1, kMaxLatency]");
    require(reconfig_cycles >= 0, "reconfig_cycles must be non-negative");
    require(memory.banks > 0, "memory.banks must be positive");
    require(memory.banks_per_page > 0, "memory.banks_per_page must be positive");
    require(memory.banks % memory.banks_per_page == 0,
            "memory.banks must be a multiple of banks_per_page");
    require(memory.lines > 0, "memory.lines must be positive");
    require(std::int64_t{memory.banks} * memory.lines <= kMaxSlots,
            "memory must hold at most kMaxSlots slots");
    require(max_vector_reads_per_cycle > 0, "max_vector_reads_per_cycle must be positive");
    require(max_vector_writes_per_cycle > 0, "max_vector_writes_per_cycle must be positive");
}

}  // namespace revec::arch
