// Golden-trace tests: a tiny fixed solve must serialize to byte-identical
// JSONL (timestamps normalized) run over run and session over session, and
// the richer portfolio / node-level traces must satisfy the schema the
// reader validates. The golden file lives in tests/obs/golden/; regenerate
// it with REVEC_OBS_UPDATE_GOLDEN=1 after an intentional format change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "../cp/portfolio_models.hpp"
#include "../lns/lns_fixtures.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/cp/linear.hpp"
#include "revec/cp/portfolio.hpp"
#include "revec/cp/search.hpp"
#include "revec/ir/passes.hpp"
#include "revec/lns/lns.hpp"
#include "revec/obs/trace.hpp"
#include "revec/obs/trace_read.hpp"

namespace revec::obs {
namespace {

/// Timestamps are the only nondeterministic field of the JSONL stream.
std::string normalize_timestamps(const std::string& jsonl) {
    static const std::regex re("\"ts_us\": ?[0-9]+");
    return std::regex_replace(jsonl, re, "\"ts_us\": 0");
}

/// The fixed tiny solve behind the golden file: minimize x + y subject to
/// x + y >= 7 with a Max-first value order, so the search improves the
/// incumbent several times before proving optimality — a deterministic
/// sequence of "solution" instants inside a hand-opened "solve" span.
std::string tiny_solve_jsonl(TraceLevel level) {
    TraceSink sink(level);
    cp::Store s;
    const cp::IntVar x = s.new_var(0, 9);
    const cp::IntVar y = s.new_var(0, 9);
    const cp::IntVar obj = s.new_var(0, 18);
    cp::post_linear_leq(s, {{-1, x}, {-1, y}}, -7);
    cp::post_linear_eq(s, {{1, x}, {1, y}, {-1, obj}}, 0);
    cp::SearchOptions options;
    options.trace = sink.main();
    {
        SpanScope scope(sink.main(), TraceLevel::Phase, "solve");
        const cp::SolveResult r = cp::solve(
            s, {cp::Phase{{x, y}, cp::VarSelect::InputOrder, cp::ValSelect::Max, ""}}, obj,
            options);
        EXPECT_EQ(r.status, cp::SolveStatus::Optimal);
        scope.result("nodes", r.stats.nodes);
    }
    std::ostringstream os;
    sink.write_jsonl(os);
    return os.str();
}

TEST(TraceGolden, PhaseLevelJsonlMatchesGoldenFile) {
    const std::string golden_path = std::string(REVEC_OBS_GOLDEN_DIR) + "/tiny_solve.jsonl";
    const std::string got = normalize_timestamps(tiny_solve_jsonl(TraceLevel::Phase));
    if (std::getenv("REVEC_OBS_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        out << got;
        GTEST_SKIP() << "golden file updated: " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(TraceGolden, JsonlIsDeterministicAcrossRuns) {
    EXPECT_EQ(normalize_timestamps(tiny_solve_jsonl(TraceLevel::Phase)),
              normalize_timestamps(tiny_solve_jsonl(TraceLevel::Phase)));
    EXPECT_EQ(normalize_timestamps(tiny_solve_jsonl(TraceLevel::Node)),
              normalize_timestamps(tiny_solve_jsonl(TraceLevel::Node)));
}

TEST(TraceGolden, NodeLevelCountsMatchSolverStats) {
    TraceSink sink(TraceLevel::Node);
    cp::Store s;
    const cp::IntVar x = s.new_var(0, 9);
    const cp::IntVar y = s.new_var(0, 9);
    const cp::IntVar obj = s.new_var(0, 18);
    cp::post_linear_leq(s, {{-1, x}, {-1, y}}, -7);
    cp::post_linear_eq(s, {{1, x}, {1, y}, {-1, obj}}, 0);
    cp::SearchOptions options;
    options.trace = sink.main();
    const cp::SolveResult r = cp::solve(
        s, {cp::Phase{{x, y}, cp::VarSelect::InputOrder, cp::ValSelect::Max, ""}}, obj,
        options);
    ASSERT_EQ(r.status, cp::SolveStatus::Optimal);
    ASSERT_EQ(sink.total_dropped(), 0u);

    std::int64_t nodes = 0;
    std::int64_t fails = 0;
    std::int64_t solutions = 0;
    for (const TraceEvent& e : sink.main()->snapshot()) {
        if (e.kind != EventKind::Instant) continue;
        const std::string name = e.name;
        if (name == "node") ++nodes;
        if (name == "fail") ++fails;
        if (name == "solution") ++solutions;
    }
    EXPECT_EQ(nodes, r.stats.nodes);
    EXPECT_EQ(fails, r.stats.failures);
    EXPECT_EQ(solutions, r.stats.solutions);
}

TEST(TraceGolden, PortfolioTraceHasValidPerWorkerTracks) {
    TraceSink sink(TraceLevel::Phase);
    cp::SolverConfig config;
    config.threads = 4;
    config.trace = &sink;
    config.profile = true;
    const cp::PortfolioResult r =
        cp::testing::run_portfolio(cp::testing::random_rcpsp(/*seed=*/7, /*tasks=*/8), config);
    ASSERT_TRUE(r.has_solution());
    EXPECT_FALSE(r.prop_profile.empty());  // profile mode surfaces class totals

    // Both serializations of the same sink must parse and validate, with
    // one labeled track per worker plus the main track.
    for (const bool jsonl : {false, true}) {
        std::ostringstream os;
        if (jsonl) {
            sink.write_jsonl(os);
        } else {
            sink.write_chrome_trace(os);
        }
        const ParsedTrace parsed = parse_trace(os.str());
        EXPECT_TRUE(validate_trace(parsed).empty());
        for (int k = 0; k < config.threads; ++k) {
            bool found = false;
            for (const ParsedTrack& t : parsed.tracks) {
                if (t.name.find("worker-" + std::to_string(k)) == 0) found = true;
            }
            EXPECT_TRUE(found) << "no track for worker " << k;
        }
    }
}

/// A small deterministic standalone LNS run, traced into the sink's main
/// track: the round loop over the conservative matmul incumbent.
std::string lns_run_jsonl(TraceLevel level) {
    TraceSink sink(level);
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    const lns::testing::Incumbent inc = lns::testing::ladder_incumbent(
        arch::ArchSpec::eit(), g, heur::ladder().size() - 1);
    EXPECT_TRUE(inc.ok);
    lns::LnsOptions opts;
    opts.seed = 0x7e57u;
    opts.max_rounds = 4;
    opts.tuning.repair_failures = 300;
    opts.trace = sink.main();
    const lns::LnsResult r =
        lns::improve_schedule(inc.km, inc.start, inc.slot, inc.makespan, opts);
    EXPECT_EQ(r.rounds, r.accepted + r.rejected);
    std::ostringstream os;
    sink.write_jsonl(os);
    return os.str();
}

TEST(TraceGolden, LnsRunEmitsRoundRelaxRepairSpans) {
    const std::string jsonl = lns_run_jsonl(TraceLevel::Phase);
    const ParsedTrace parsed = parse_trace(jsonl);
    EXPECT_TRUE(validate_trace(parsed).empty());

    // Every round is one lns_round span wrapping exactly one relax and one
    // repair span, closed by an accept/reject instant.
    std::int64_t rounds = 0;
    std::int64_t relax = 0;
    std::int64_t repair = 0;
    std::int64_t verdicts = 0;
    for (const ParsedTrack& t : parsed.tracks) {
        for (const ParsedEvent& e : t.events) {
            const std::string name = e.name;
            if (e.kind == 'E') {
                if (name == "lns_round") ++rounds;
                if (name == "relax") ++relax;
                if (name == "repair") ++repair;
            } else if (e.kind == 'I') {
                if (name == "lns_accept" || name == "lns_reject") ++verdicts;
            }
        }
    }
    EXPECT_GT(rounds, 0);
    EXPECT_EQ(relax, rounds);
    EXPECT_EQ(repair, rounds);
    EXPECT_EQ(verdicts, rounds);
}

TEST(TraceGolden, LnsJsonlIsDeterministicAcrossRuns) {
    EXPECT_EQ(normalize_timestamps(lns_run_jsonl(TraceLevel::Phase)),
              normalize_timestamps(lns_run_jsonl(TraceLevel::Phase)));
}

TEST(TraceGolden, PortfolioWithLnsWorkersHasValidLnsTracks) {
    TraceSink sink(TraceLevel::Phase);
    cp::SolverConfig config;
    config.threads = 2;
    config.lns_workers = 2;
    config.trace = &sink;
    config.lns_round = [](const cp::LnsRoundContext&) { return cp::LnsRoundResult{}; };
    const cp::PortfolioResult r =
        cp::testing::run_portfolio(cp::testing::random_rcpsp(/*seed=*/7, /*tasks=*/8), config);
    ASSERT_TRUE(r.has_solution());

    std::ostringstream os;
    sink.write_jsonl(os);
    const ParsedTrace parsed = parse_trace(os.str());
    EXPECT_TRUE(validate_trace(parsed).empty());
    for (int j = 0; j < config.lns_workers; ++j) {
        bool found = false;
        for (const ParsedTrack& t : parsed.tracks) {
            if (t.name == "lns-" + std::to_string(j)) found = true;
        }
        EXPECT_TRUE(found) << "no track for lns worker " << j;
    }
}

}  // namespace
}  // namespace revec::obs
