#include "revec/arch/spec.hpp"

#include <gtest/gtest.h>

#include "revec/support/assert.hpp"

namespace revec::arch {
namespace {

TEST(ArchSpec, EitDefaultsMatchPaper) {
    const ArchSpec spec = ArchSpec::eit();
    EXPECT_EQ(spec.vector_lanes, 4);
    EXPECT_EQ(spec.vector_length, 4);
    EXPECT_EQ(spec.pipeline_stages, 7);
    EXPECT_EQ(spec.vector_latency, 7);
    EXPECT_EQ(spec.vector_duration, 1);
    EXPECT_EQ(spec.memory.banks, 16);
    EXPECT_EQ(spec.memory.banks_per_page, 4);
    EXPECT_EQ(spec.memory.pages(), 4);
    EXPECT_EQ(spec.max_vector_reads_per_cycle, 8);
    EXPECT_EQ(spec.max_vector_writes_per_cycle, 4);
}

TEST(ArchSpec, ValidateAcceptsDefault) { EXPECT_NO_THROW(ArchSpec{}.validate()); }

TEST(ArchSpec, ValidateRejectsBadLanes) {
    ArchSpec s;
    s.vector_lanes = 0;
    EXPECT_THROW(s.validate(), Error);
}

TEST(ArchSpec, ValidateRejectsNegativeReconfig) {
    ArchSpec s;
    s.reconfig_cycles = -1;
    EXPECT_THROW(s.validate(), Error);
}

TEST(ArchSpec, ValidateRejectsUnevenPages) {
    ArchSpec s;
    s.memory.banks = 14;  // not divisible by banks_per_page = 4
    EXPECT_THROW(s.validate(), Error);
}

TEST(ArchSpec, ValidateRejectsZeroLatency) {
    ArchSpec s;
    s.vector_latency = 0;
    EXPECT_THROW(s.validate(), Error);
    s = ArchSpec{};
    s.scalar_latency = 0;
    EXPECT_THROW(s.validate(), Error);
    s = ArchSpec{};
    s.index_merge_latency = 0;
    EXPECT_THROW(s.validate(), Error);
}

// Every timing lies in [1, kMaxLatency] and the memory holds at most
// kMaxSlots slots: the heuristics size per-cycle and per-slot tables from
// them.
TEST(ArchSpec, ValidateRejectsTimingsAndMemoryPastTheCaps) {
    int ArchSpec::*const timings[] = {
        &ArchSpec::vector_latency,      &ArchSpec::vector_duration,
        &ArchSpec::scalar_latency,      &ArchSpec::scalar_duration,
        &ArchSpec::index_merge_latency, &ArchSpec::index_merge_duration,
    };
    for (int ArchSpec::*const t : timings) {
        for (const int bad : {-3, 0, kMaxLatency + 1, 1000000}) {
            ArchSpec s;
            s.*t = bad;
            EXPECT_THROW(s.validate(), Error) << bad;
        }
        ArchSpec most;
        most.*t = kMaxLatency;
        EXPECT_NO_THROW(most.validate());
    }
    ArchSpec big;
    big.memory.lines = kMaxSlots / big.memory.banks + 1;
    EXPECT_THROW(big.validate(), Error);
    big.memory.lines = 1 << 30;  // banks * lines overflows an int
    EXPECT_THROW(big.validate(), Error);
    big.memory.lines = kMaxSlots / big.memory.banks;
    EXPECT_NO_THROW(big.validate());
}

TEST(ArchSpec, CustomConfigurationsValidate) {
    // Retargeting to a wider machine must be allowed.
    ArchSpec s;
    s.vector_lanes = 8;
    s.memory.banks = 32;
    s.memory.banks_per_page = 8;
    s.memory.lines = 8;
    EXPECT_NO_THROW(s.validate());
    EXPECT_EQ(s.memory.slots(), 256);
}

}  // namespace
}  // namespace revec::arch
