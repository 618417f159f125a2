#include "revec/driver/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/ir/passes.hpp"
#include "revec/ir/xml_io.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"

namespace revec::driver {
namespace {

std::string write_kernel(const ir::Graph& g, const std::string& name) {
    const std::string path = testing::TempDir() + "/" + name;
    ir::save_xml(g, path);
    return path;
}

TEST(ParseArgs, Defaults) {
    std::ostringstream out;
    const auto opts = parse_args({"kernel.xml"}, out);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->input_path, "kernel.xml");
    EXPECT_EQ(opts->emit, "schedule");
    EXPECT_TRUE(opts->memory);
    EXPECT_TRUE(opts->merge_pass);
    EXPECT_FALSE(opts->simulate);
}

TEST(ParseArgs, AllOptions) {
    std::ostringstream out;
    const auto opts = parse_args({"--emit=listing", "k.xml", "--slots=16", "--arch=a.xml",
                                  "--timeout-ms=5000", "--no-merge", "--no-memory",
                                  "--include-reconfigs", "--simulate", "--lanes=8"},
                                 out);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->emit, "listing");
    EXPECT_EQ(opts->num_slots, 16);
    EXPECT_EQ(opts->timeout_ms, 5000);
    EXPECT_FALSE(opts->merge_pass);
    EXPECT_FALSE(opts->memory);
    EXPECT_TRUE(opts->include_reconfigs);
    EXPECT_TRUE(opts->simulate);
    EXPECT_EQ(opts->lanes, 8);
    EXPECT_EQ(opts->arch_path, "a.xml");
}

TEST(ParseArgs, WarmStartFlags) {
    std::ostringstream out;
    const auto on = parse_args({"k.xml", "--warm-start=on"}, out);
    ASSERT_TRUE(on.has_value());
    EXPECT_TRUE(on->warm_start);
    const auto off = parse_args({"k.xml", "--warm-start=off"}, out);
    ASSERT_TRUE(off.has_value());
    EXPECT_FALSE(off->warm_start);
    const auto heur = parse_args({"k.xml", "--heuristic-only"}, out);
    ASSERT_TRUE(heur.has_value());
    EXPECT_TRUE(heur->heuristic_only);
    EXPECT_THROW(parse_args({"k.xml", "--warm-start=maybe"}, out), Error);
}

TEST(ParseArgs, HelpShortCircuits) {
    std::ostringstream out;
    EXPECT_FALSE(parse_args({"--help"}, out).has_value());
    EXPECT_NE(out.str().find("usage: revecc"), std::string::npos);
}

TEST(ParseArgs, Rejections) {
    std::ostringstream out;
    EXPECT_THROW(parse_args({}, out), Error);                       // no input
    EXPECT_THROW(parse_args({"a.xml", "b.xml"}, out), Error);       // two inputs
    EXPECT_THROW(parse_args({"a.xml", "--bogus"}, out), Error);     // unknown flag
    EXPECT_THROW(parse_args({"a.xml", "--emit=magic"}, out), Error);
    EXPECT_THROW(parse_args({"a.xml", "--slots=abc"}, out), Error);
}

TEST(Run, StatsOnMatmul) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul.xml");
    Options opts;
    opts.input_path = path;
    opts.emit = "stats";
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("|V|"), std::string::npos);
    EXPECT_NE(out.str().find("44"), std::string::npos);
}

TEST(Run, ScheduleReport) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul2.xml");
    Options opts;
    opts.input_path = path;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("makespan"), std::string::npos);
    EXPECT_NE(out.str().find("proven optimal"), std::string::npos);
}

TEST(Run, ListingWithSimulation) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul3.xml");
    Options opts;
    opts.input_path = path;
    opts.emit = "listing";
    opts.simulate = true;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("v_dotP"), std::string::npos);
    EXPECT_NE(out.str().find("outputs match"), std::string::npos);
}

TEST(Run, DotOutput) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul4.xml");
    Options opts;
    opts.input_path = path;
    opts.emit = "dot";
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("digraph"), std::string::npos);
}

TEST(Run, ModuloReport) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul5.xml");
    Options opts;
    opts.input_path = path;
    opts.emit = "modulo";
    opts.include_reconfigs = true;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("actual II:      4"), std::string::npos);
}

TEST(Run, UnsatReportsFailure) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul6.xml");
    Options opts;
    opts.input_path = path;
    opts.num_slots = 2;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 1);
    EXPECT_NE(out.str().find("UNSAT"), std::string::npos);
}

TEST(Run, HeuristicOnlyExitsWithFallbackCode) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul11.xml");
    Options opts;
    opts.input_path = path;
    opts.heuristic_only = true;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 5);
    EXPECT_NE(out.str().find("heuristic fallback"), std::string::npos);
    EXPECT_NE(out.str().find("makespan"), std::string::npos);
}

TEST(Run, ZeroTimeoutFallsBackToHeuristic) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul12.xml");
    Options opts;
    opts.input_path = path;
    opts.timeout_ms = 0;
    opts.simulate = true;  // the fallback schedule must still simulate
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 5);
    EXPECT_NE(out.str().find("heuristic fallback"), std::string::npos);
    EXPECT_NE(out.str().find("outputs match"), std::string::npos);
}

TEST(Run, ZeroTimeoutWithoutWarmStartReportsTimeout) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul13.xml");
    Options opts;
    opts.input_path = path;
    opts.timeout_ms = 0;
    opts.warm_start = false;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 6);
    EXPECT_NE(out.str().find("timeout"), std::string::npos);
}

TEST(Run, ModuloZeroTimeoutUsesImsKernel) {
    // matmul's IMS kernel sits at the resource lower bound, so even with no
    // exact-search budget the modulo report comes back proven optimal.
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul14.xml");
    Options opts;
    opts.input_path = path;
    opts.emit = "modulo";
    opts.timeout_ms = 0;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("initial II:     4"), std::string::npos);
}

TEST(Run, SimulateRequiresMemory) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul7.xml");
    Options opts;
    opts.input_path = path;
    opts.memory = false;
    opts.simulate = true;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 1);
    EXPECT_NE(out.str().find("requires memory allocation"), std::string::npos);
}

TEST(Run, LnsWithModuloIsAUsageError) {
    // LNS relaxes flat schedules; the modulo scan has none to relax.
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul20.xml");
    std::ostringstream parse_out;
    const auto opts = parse_args({path, "--emit=modulo", "--lns=on"}, parse_out);
    ASSERT_TRUE(opts.has_value());
    std::ostringstream out;
    EXPECT_EQ(run(*opts, out), 1);
    EXPECT_NE(out.str().find("--emit=modulo"), std::string::npos);
    const auto counted = parse_args({path, "--emit=modulo", "--lns-workers=1"}, parse_out);
    ASSERT_TRUE(counted.has_value());
    EXPECT_EQ(run(*counted, out), 1);
}

TEST(Run, MissingFileFails) {
    Options opts;
    opts.input_path = "/nonexistent/kernel.xml";
    std::ostringstream out;
    EXPECT_THROW(run(opts, out), Error);
}

TEST(Run, SaveScheduleArtifact) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul10.xml");
    const std::string sched_path = testing::TempDir() + "/drv_sched.xml";
    Options opts;
    opts.input_path = path;
    opts.save_schedule_path = sched_path;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("schedule written"), std::string::npos);
    std::ifstream in(sched_path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("<schedule"), std::string::npos);
    EXPECT_NE(content.find("makespan"), std::string::npos);
}

TEST(ParseArgs, DumpModelFlag) {
    std::ostringstream out;
    const auto opts = parse_args({"k.xml", "--dump-model=/tmp/m.json"}, out);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->dump_model_path, "/tmp/m.json");
    EXPECT_NE(usage().find("--dump-model"), std::string::npos);
}

TEST(Run, DumpModelWritesJson) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul15.xml");
    const std::string model_path = testing::TempDir() + "/drv_model.json";
    Options opts;
    opts.input_path = path;
    opts.emit = "stats";  // dumping works in every emit mode
    opts.dump_model_path = model_path;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("model written"), std::string::npos);
    std::ifstream in(model_path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    // Fig. 3 MATMUL after merging: 44 nodes, the geometry, and the lowering
    // flags all present in the serialized model.
    EXPECT_NE(content.find("\"name\": \"matmul\""), std::string::npos);
    EXPECT_NE(content.find("\"nodes\""), std::string::npos);
    EXPECT_NE(content.find("\"geometry\""), std::string::npos);
    EXPECT_NE(content.find("\"edges\""), std::string::npos);
}

TEST(Run, ArchFileRetargets) {
    // Write a slow-pipeline architecture and confirm the driver uses it.
    const std::string arch_path = testing::TempDir() + "/drv_arch.xml";
    {
        std::ofstream out(arch_path);
        out << "<arch><vector latency=\"9\"/></arch>";
    }
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul8.xml");
    Options opts;
    opts.input_path = path;
    opts.arch_path = arch_path;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    // Critical path becomes 9 (pipeline) + 1 (merge) = 10; optimum >= 13.
    EXPECT_EQ(out.str().find("makespan:    11"), std::string::npos);
}

TEST(Run, BadArchFileRejected) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul9.xml");
    Options opts;
    opts.input_path = path;
    opts.arch_path = "/nonexistent/arch.xml";
    std::ostringstream out;
    EXPECT_THROW(run(opts, out), Error);
}

TEST(ParseArgs, TraceFlagImpliesPhaseLevel) {
    std::ostringstream out;
    const auto opts = parse_args({"k.xml", "--trace=/tmp/t.json"}, out);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->trace_path, "/tmp/t.json");
    EXPECT_EQ(opts->trace_level, obs::TraceLevel::Phase);
}

TEST(ParseArgs, ExplicitTraceLevelWins) {
    std::ostringstream out;
    const auto node = parse_args({"k.xml", "--trace=t.json", "--trace-level=node"}, out);
    ASSERT_TRUE(node.has_value());
    EXPECT_EQ(node->trace_level, obs::TraceLevel::Node);
    // --trace-level=off disables even with a --trace path (flag order must
    // not matter).
    const auto off = parse_args({"k.xml", "--trace-level=off", "--trace=t.json"}, out);
    ASSERT_TRUE(off.has_value());
    EXPECT_EQ(off->trace_level, obs::TraceLevel::Off);
}

TEST(ParseArgs, MetricsFlag) {
    std::ostringstream out;
    const auto opts = parse_args({"k.xml", "--metrics=/tmp/m.json"}, out);
    ASSERT_TRUE(opts.has_value());
    EXPECT_EQ(opts->metrics_path, "/tmp/m.json");
    EXPECT_NE(usage().find("--metrics"), std::string::npos);
    EXPECT_NE(usage().find("--trace"), std::string::npos);
}

TEST(ParseArgs, RejectsBadObservabilityValues) {
    std::ostringstream out;
    EXPECT_THROW(parse_args({"k.xml", "--trace-level=verbose"}, out), Error);
    EXPECT_THROW(parse_args({"k.xml", "--trace="}, out), Error);
    EXPECT_THROW(parse_args({"k.xml", "--metrics="}, out), Error);
}

TEST(ParseArgs, UnknownFlagSuggestsClosestMatch) {
    std::ostringstream out;
    try {
        parse_args({"k.xml", "--trase=/tmp/t.json"}, out);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown option '--trase=/tmp/t.json'"), std::string::npos);
        EXPECT_NE(what.find("did you mean '--trace'"), std::string::npos);
        EXPECT_NE(what.find("--help"), std::string::npos);
    }
    // Nothing plausible nearby: no suggestion, but still the --help pointer.
    try {
        parse_args({"k.xml", "--frobnicate"}, out);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.find("did you mean"), std::string::npos);
        EXPECT_NE(what.find("--help"), std::string::npos);
    }
}

TEST(ParseArgs, LnsFlags) {
    std::ostringstream out;
    const auto defaults = parse_args({"k.xml"}, out);
    ASSERT_TRUE(defaults.has_value());
    EXPECT_EQ(defaults->lns_workers, 0);
    EXPECT_EQ(defaults->lns_relax_pct, 30);

    // --lns=on without a count defaults to 2 workers.
    const auto on = parse_args({"k.xml", "--lns=on"}, out);
    ASSERT_TRUE(on.has_value());
    EXPECT_EQ(on->lns_workers, 2);

    // --lns-workers=N implies on; --lns=off wins regardless of order.
    const auto counted = parse_args({"k.xml", "--lns-workers=3"}, out);
    ASSERT_TRUE(counted.has_value());
    EXPECT_EQ(counted->lns_workers, 3);
    const auto off = parse_args({"k.xml", "--lns-workers=3", "--lns=off"}, out);
    ASSERT_TRUE(off.has_value());
    EXPECT_EQ(off->lns_workers, 0);

    const auto pct = parse_args({"k.xml", "--lns=on", "--lns-relax-pct=45"}, out);
    ASSERT_TRUE(pct.has_value());
    EXPECT_EQ(pct->lns_relax_pct, 45);

    EXPECT_NE(usage().find("--lns="), std::string::npos);
    EXPECT_NE(usage().find("--lns-workers"), std::string::npos);
    EXPECT_NE(usage().find("--lns-relax-pct"), std::string::npos);

    EXPECT_THROW(parse_args({"k.xml", "--lns=maybe"}, out), Error);
    EXPECT_THROW(parse_args({"k.xml", "--lns=on", "--lns=off"}, out), Error);
    EXPECT_THROW(parse_args({"k.xml", "--lns-workers=0"}, out), Error);
    EXPECT_THROW(parse_args({"k.xml", "--lns-relax-pct=0"}, out), Error);
    EXPECT_THROW(parse_args({"k.xml", "--lns-relax-pct=101"}, out), Error);
}

TEST(Run, LnsMetricsKeysPresent) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul18.xml");
    const std::string metrics_path = testing::TempDir() + "/drv_lns_metrics.json";
    Options opts;
    opts.input_path = path;
    opts.threads = 2;
    opts.lns_workers = 2;
    opts.metrics_path = metrics_path;
    std::ostringstream out;
    const int code = run(opts, out);
    EXPECT_TRUE(code == 0 || code == 4 || code == 5) << code;
    std::ifstream in(metrics_path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    // The lns.* aggregate section plus per-worker lns counters — and the
    // deterministic registry ordering keeps accepted before rejected
    // before rounds before workers.
    EXPECT_NE(content.find("\"lns.workers\": 2"), std::string::npos);
    EXPECT_NE(content.find("\"lns.rounds\""), std::string::npos);
    EXPECT_NE(content.find("\"lns.accepted\""), std::string::npos);
    EXPECT_NE(content.find("\"lns.rejected\""), std::string::npos);
    EXPECT_NE(content.find(".lns_rounds\""), std::string::npos);
    EXPECT_LT(content.find("\"lns.accepted\""), content.find("\"lns.rejected\""));
    EXPECT_LT(content.find("\"lns.rejected\""), content.find("\"lns.rounds\""));
}

TEST(Run, LnsWorkerReportInScheduleOutput) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul19.xml");
    Options opts;
    opts.input_path = path;
    opts.threads = 2;
    opts.lns_workers = 1;
    std::ostringstream out;
    const int code = run(opts, out);
    EXPECT_TRUE(code == 0 || code == 4 || code == 5) << code;
    EXPECT_NE(out.str().find("[lns-0]"), std::string::npos) << out.str();
    EXPECT_NE(out.str().find("rounds"), std::string::npos);
}

TEST(Run, TraceAndMetricsArtifacts) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul16.xml");
    const std::string trace_path = testing::TempDir() + "/drv_trace.json";
    const std::string metrics_path = testing::TempDir() + "/drv_metrics.json";
    Options opts;
    opts.input_path = path;
    opts.threads = 4;
    opts.trace_path = trace_path;
    opts.trace_level = obs::TraceLevel::Phase;
    opts.metrics_path = metrics_path;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    EXPECT_NE(out.str().find("trace written to"), std::string::npos);
    EXPECT_NE(out.str().find("metrics written to"), std::string::npos);

    // The trace parses, validates, and has one labeled track per worker.
    const obs::ParsedTrace trace = obs::load_trace(trace_path);
    EXPECT_TRUE(obs::validate_trace(trace).empty());
    ASSERT_NE(trace.track("main"), nullptr);
    for (int k = 0; k < opts.threads; ++k) {
        bool found = false;
        for (const obs::ParsedTrack& t : trace.tracks) {
            if (t.name.find("worker-" + std::to_string(k)) == 0) found = true;
        }
        EXPECT_TRUE(found) << "no track for worker " << k;
    }

    // The metrics document carries search, engine, and per-class sections.
    std::ifstream in(metrics_path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"solve.nodes\""), std::string::npos);
    EXPECT_NE(content.find("\"engine.propagations\""), std::string::npos);
    EXPECT_NE(content.find("\"prop."), std::string::npos);
    EXPECT_NE(content.find("\"solve.status\": \"proven optimal\""), std::string::npos);
}

TEST(Run, MetricsMatchSolverCounters) {
    // The acceptance contract of --metrics: registry totals equal the
    // solver's own counters, with per-class attribution present.
    const ir::Graph g = ir::merge_pipeline_ops(apps::build_matmul());
    sched::ScheduleOptions sopts;
    sopts.solver.profile = true;
    const sched::Schedule s = sched::schedule_kernel(g, sopts);
    ASSERT_TRUE(s.feasible());
    ASSERT_FALSE(s.prop_profile.empty());

    const obs::MetricsRegistry m = collect_metrics(s);
    EXPECT_EQ(m.counter("solve.nodes"), s.stats.nodes);
    EXPECT_EQ(m.counter("solve.failures"), s.stats.failures);
    EXPECT_EQ(m.counter("solve.solutions"), s.stats.solutions);
    EXPECT_EQ(m.counter("engine.propagations"), s.prop_stats.propagations);
    EXPECT_EQ(m.counter("engine.wakeups"), s.prop_stats.wakeups);
    EXPECT_EQ(m.counter("solve.makespan"), s.makespan);
    const std::string cls = s.prop_profile.front().cls;
    EXPECT_EQ(m.counter("prop." + cls + ".runs"), s.prop_profile.front().runs);
    ASSERT_NE(m.label_value("solve.status"), nullptr);
    EXPECT_EQ(*m.label_value("solve.status"), "proven optimal");
}

TEST(Run, ModuloTraceAndMetricsArtifacts) {
    const std::string path = write_kernel(apps::build_matmul(), "drv_matmul17.xml");
    const std::string trace_path = testing::TempDir() + "/drv_modulo_trace.jsonl";
    const std::string metrics_path = testing::TempDir() + "/drv_modulo_metrics.json";
    Options opts;
    opts.input_path = path;
    opts.emit = "modulo";
    opts.trace_path = trace_path;
    opts.trace_level = obs::TraceLevel::Phase;
    opts.metrics_path = metrics_path;
    std::ostringstream out;
    EXPECT_EQ(run(opts, out), 0);
    const obs::ParsedTrace trace = obs::load_trace(trace_path);
    EXPECT_TRUE(obs::validate_trace(trace).empty());
    const obs::ParsedTrack* main_track = trace.track("main");
    ASSERT_NE(main_track, nullptr);
    bool saw_modulo_span = false;
    for (const obs::ParsedEvent& e : main_track->events) {
        if (e.kind == 'B' && e.name == "modulo") saw_modulo_span = true;
    }
    EXPECT_TRUE(saw_modulo_span);
    std::ifstream in(metrics_path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"modulo.actual_ii\": 4"), std::string::npos);
}

TEST(Run, LaneOverrideChangesSchedule) {
    // 8 same-type independent ops: 4 lanes need >= 2 issue cycles, 8 lanes
    // take one.
    const std::string path = write_kernel(apps::build_qrd(), "drv_qrd.xml");
    Options narrow;
    narrow.input_path = path;
    narrow.timeout_ms = 20000;
    std::ostringstream out1;
    EXPECT_EQ(run(narrow, out1), 0);

    Options wide = narrow;
    wide.lanes = 8;
    std::ostringstream out2;
    EXPECT_EQ(run(wide, out2), 0);
    // Both run; QRD is latency-bound so the makespan stays the same.
    EXPECT_NE(out1.str().find("142"), std::string::npos);
    EXPECT_NE(out2.str().find("142"), std::string::npos);
}

// Anti-drift guards over the flag inventory: known_flags() is the single
// source parse_args dispatches on, so --help and the README flag table
// must both cover exactly those names — a new flag that skips either
// surface fails here, not in a user's shell.

std::string help_text() {
    std::ostringstream out;
    const auto opts = parse_args({"--help"}, out);
    EXPECT_FALSE(opts.has_value());
    return out.str();
}

TEST(Flags, UsageDocumentsEveryKnownFlag) {
    const std::string usage = help_text();
    for (const std::string& flag : known_flags()) {
        EXPECT_NE(usage.find("  " + flag), std::string::npos)
            << flag << " missing from --help";
    }
}

TEST(Flags, UsageDocumentsEveryExitCode) {
    const std::string usage = help_text();
    ASSERT_NE(usage.find("exit codes:"), std::string::npos);
    for (int code = 0; code <= 6; ++code) {
        EXPECT_NE(usage.find("\n  " + std::to_string(code) + "  "), std::string::npos)
            << "exit code " << code << " missing from --help";
    }
}

TEST(Flags, ReadmeFlagTableMatchesKnownFlags) {
    std::ifstream in(REVEC_README_PATH);
    ASSERT_TRUE(in.good()) << REVEC_README_PATH;
    const std::string readme((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    const std::size_t section = readme.find("## `revecc` flags");
    ASSERT_NE(section, std::string::npos);
    const std::size_t section_end = readme.find("\n## ", section + 1);
    const std::string table = readme.substr(
        section, section_end == std::string::npos ? std::string::npos
                                                  : section_end - section);

    // Every flag named in the README table must be a real flag...
    std::size_t pos = 0;
    int found = 0;
    while ((pos = table.find("`--", pos)) != std::string::npos) {
        std::size_t end = pos + 1;
        while (end < table.size() &&
               (std::isalnum(static_cast<unsigned char>(table[end])) != 0 ||
                table[end] == '-')) {
            ++end;
        }
        const std::string name = table.substr(pos + 1, end - pos - 1);
        const auto& flags = known_flags();
        EXPECT_NE(std::find(flags.begin(), flags.end(), name), flags.end())
            << name << " in the README table is not a revecc flag";
        ++found;
        pos = end;
    }
    EXPECT_GT(found, 10);  // the table really was parsed

    // ...and every real flag (minus --help) must be in the README table.
    for (const std::string& flag : known_flags()) {
        if (flag == "--help") continue;
        EXPECT_NE(table.find("`" + flag), std::string::npos)
            << flag << " missing from the README flag table";
    }
}

}  // namespace
}  // namespace revec::driver
