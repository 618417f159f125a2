// Anti-drift guards over the service tools' flag inventories, mirroring
// the revecc guards in tests/driver: revecd_known_flags() /
// revecctl_known_flags() are the single lists the tools dispatch on, so
// each usage text and the README service section must cover exactly those
// names — a new flag that skips either surface fails here, not in a
// user's shell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "revec/svc/flags.hpp"

namespace revec::svc {
namespace {

std::string usage_of(void (*usage)(std::ostream&)) {
    std::ostringstream os;
    usage(os);
    return os.str();
}

TEST(ToolFlags, RevecdUsageDocumentsEveryKnownFlag) {
    const std::string usage = usage_of(revecd_usage);
    for (const std::string& flag : revecd_known_flags()) {
        EXPECT_NE(usage.find("  " + flag), std::string::npos)
            << flag << " missing from revecd --help";
    }
}

TEST(ToolFlags, RevecctlUsageDocumentsEveryKnownFlag) {
    const std::string usage = usage_of(revecctl_usage);
    for (const std::string& flag : revecctl_known_flags()) {
        if (flag == "--socket" || flag == "--help") continue;  // header line
        EXPECT_NE(usage.find("  " + flag), std::string::npos)
            << flag << " missing from revecctl --help";
    }
    EXPECT_NE(usage.find("--socket=PATH"), std::string::npos);
}

TEST(ToolFlags, InventoriesCoverTheNewReuseKnobs) {
    const auto& d = revecd_known_flags();
    const auto& c = revecctl_known_flags();
    // One capacity sizes the one schedule cache, donors included.
    EXPECT_NE(std::find(d.begin(), d.end(), "--cache-capacity"), d.end());
    EXPECT_EQ(std::find(d.begin(), d.end(), "--cache-near-capacity"), d.end());
    EXPECT_NE(std::find(c.begin(), c.end(), "--reuse"), c.end());
    // The CP portfolio is the only exact search: no LNS knobs.
    EXPECT_EQ(std::find(c.begin(), c.end(), "--lns-workers"), c.end());
    EXPECT_EQ(std::find(c.begin(), c.end(), "--lns-relax-pct"), c.end());
}

TEST(ToolFlags, ReadmeServiceSectionMatchesInventories) {
    std::ifstream in(REVEC_README_PATH);
    ASSERT_TRUE(in.good()) << REVEC_README_PATH;
    const std::string readme((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    const std::size_t section = readme.find("## `revecd` / `revecctl`");
    ASSERT_NE(section, std::string::npos);
    const std::size_t section_end = readme.find("\n## ", section + 1);
    const std::string text = readme.substr(
        section, section_end == std::string::npos ? std::string::npos
                                                  : section_end - section);

    // Every tool flag (minus --help) must be named in the section...
    for (const auto* flags : {&revecd_known_flags(), &revecctl_known_flags()}) {
        for (const std::string& flag : *flags) {
            if (flag == "--help") continue;
            EXPECT_NE(text.find("`" + flag), std::string::npos)
                << flag << " missing from the README service section";
        }
    }

    // ...and every backticked flag in the section must be a real flag of
    // one of the tools (--dump-model is revecc's, referenced for the model
    // files revecctl consumes; --rid and --rule are revec-stats's,
    // referenced for trace filtering and the telemetry diff gate).
    const std::vector<std::string> allowed_foreign = {"--dump-model", "--rule"};
    std::size_t pos = 0;
    int found = 0;
    while ((pos = text.find("`--", pos)) != std::string::npos) {
        std::size_t end = pos + 1;
        while (end < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[end])) != 0 ||
                text[end] == '-')) {
            ++end;
        }
        const std::string name = text.substr(pos + 1, end - pos - 1);
        const auto& d = revecd_known_flags();
        const auto& c = revecctl_known_flags();
        const bool known =
            std::find(d.begin(), d.end(), name) != d.end() ||
            std::find(c.begin(), c.end(), name) != c.end() ||
            std::find(allowed_foreign.begin(), allowed_foreign.end(), name) !=
                allowed_foreign.end();
        EXPECT_TRUE(known) << name << " in the README service section is not a flag "
                              "of revecd or revecctl";
        ++found;
        pos = end;
    }
    EXPECT_GT(found, 8);  // the section really was parsed
}

}  // namespace
}  // namespace revec::svc
