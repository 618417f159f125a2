#include "revec/arch/spec_io.hpp"

#include <gtest/gtest.h>

#include "revec/support/assert.hpp"

namespace revec::arch {
namespace {

TEST(SpecIo, RoundTripEit) {
    const ArchSpec spec = ArchSpec::eit();
    const ArchSpec back = spec_from_xml(spec_to_xml(spec));
    EXPECT_EQ(back.vector_lanes, spec.vector_lanes);
    EXPECT_EQ(back.vector_latency, spec.vector_latency);
    EXPECT_EQ(back.scalar_latency, spec.scalar_latency);
    EXPECT_EQ(back.index_merge_units, spec.index_merge_units);
    EXPECT_EQ(back.reconfig_cycles, spec.reconfig_cycles);
    EXPECT_EQ(back.memory.banks, spec.memory.banks);
    EXPECT_EQ(back.memory.lines, spec.memory.lines);
    EXPECT_EQ(back.max_vector_reads_per_cycle, spec.max_vector_reads_per_cycle);
}

TEST(SpecIo, RoundTripCustom) {
    ArchSpec spec;
    spec.vector_lanes = 8;
    spec.vector_latency = 11;
    spec.scalar_units = 2;
    spec.reconfig_cycles = 3;
    spec.memory.banks = 32;
    spec.memory.banks_per_page = 8;
    spec.memory.lines = 2;
    spec.max_vector_writes_per_cycle = 8;
    spec.validate();
    const ArchSpec back = spec_from_xml(spec_to_xml(spec));
    EXPECT_EQ(back.vector_lanes, 8);
    EXPECT_EQ(back.vector_latency, 11);
    EXPECT_EQ(back.scalar_units, 2);
    EXPECT_EQ(back.reconfig_cycles, 3);
    EXPECT_EQ(back.memory.banks, 32);
    EXPECT_EQ(back.memory.slots(), 64);
    EXPECT_EQ(back.max_vector_writes_per_cycle, 8);
}

TEST(SpecIo, MissingAttributesDefaultToEit) {
    const ArchSpec spec = spec_from_xml("<arch><vector lanes=\"2\"/></arch>");
    EXPECT_EQ(spec.vector_lanes, 2);
    EXPECT_EQ(spec.vector_latency, 7);      // default
    EXPECT_EQ(spec.memory.banks, 16);       // default
}

TEST(SpecIo, EmptyArchIsEit) {
    const ArchSpec spec = spec_from_xml("<arch/>");
    EXPECT_EQ(spec.vector_lanes, ArchSpec::eit().vector_lanes);
}

TEST(SpecIo, InvalidValuesRejected) {
    EXPECT_THROW(spec_from_xml("<arch><vector lanes=\"0\"/></arch>"), Error);
    EXPECT_THROW(spec_from_xml("<arch><memory banks=\"14\"/></arch>"), Error);
    EXPECT_THROW(spec_from_xml("<arch><scalar latency=\"-3\"/></arch>"), Error);
    EXPECT_THROW(spec_from_xml("<arch><vector latency=\"1000000\"/></arch>"), Error);
    EXPECT_THROW(spec_from_xml("<arch><memory lines=\"100000\"/></arch>"), Error);
    EXPECT_THROW(spec_from_xml("<machine/>"), Error);
    EXPECT_THROW(spec_from_xml("not xml"), Error);
}

TEST(SpecIo, FileRoundTrip) {
    const std::string path = testing::TempDir() + "/revec_spec.xml";
    ArchSpec spec;
    spec.vector_lanes = 8;
    save_spec(spec, path);
    EXPECT_EQ(load_spec(path).vector_lanes, 8);
    EXPECT_THROW(load_spec("/nonexistent/spec.xml"), Error);
}

}  // namespace
}  // namespace revec::arch
