#include "flow.hpp"

#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "revec/arch/spec.hpp"
#include "revec/codegen/codegen.hpp"
#include "revec/codegen/encode.hpp"
#include "revec/heur/alloc.hpp"
#include "revec/heur/list.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/obs/trace_read.hpp"
#include "revec/pipeline/modulo.hpp"
#include "revec/sched/model.hpp"
#include "revec/sim/simulator.hpp"
#include "revec/support/assert.hpp"

namespace perfbench {

using namespace revec;

namespace {

constexpr std::int64_t kDeadlineMs = 30000;  // revecc's default --timeout-ms

std::int64_t arg(const obs::ParsedEvent& e, const char* key) {
    const auto it = e.args.find(key);
    return it == e.args.end() ? 0 : it->second;
}

/// Replay the heuristic ladder of schedule_model through heur's public
/// calls, timing list scheduling and slot allocation separately.
void replay_ladder(const model::KernelModel& km, CompileOutcome& out) {
    model::KernelModel checked = km;
    checked.enforce_port_limits = true;
    for (const heur::ListOptions& rung : heur::ladder()) {
        auto t0 = Clock::now();
        const heur::ListResult list = heur::priority_list_schedule(checked, rung);
        out.list_ms += ms_since(t0);
        t0 = Clock::now();
        const heur::AllocResult alloc = heur::allocate_slots(checked, list.start);
        out.alloc_ms += ms_since(t0);
        if (alloc.ok &&
            model::check_schedule(checked, list.start, alloc.slot, list.makespan).empty()) {
            return;
        }
    }
}

}  // namespace

std::map<std::int64_t, PhaseTimes> read_phases(const obs::TraceSink& sink) {
    std::ostringstream jsonl;
    sink.write_jsonl(jsonl);
    const obs::ParsedTrace trace = obs::parse_trace(jsonl.str());
    std::map<std::int64_t, PhaseTimes> out;
    for (const obs::ParsedTrack& track : trace.tracks) {
        std::int64_t rid = 0;
        std::vector<const obs::ParsedEvent*> open;
        for (const obs::ParsedEvent& e : track.events) {
            if (e.kind == 'I') {
                if (e.name == "rid") {
                    rid = arg(e, "rid");
                } else if (e.name == "heur_rung") {
                    PhaseTimes& p = out[rid];
                    ++p.rungs;
                    p.rungs_ok += arg(e, "ok");
                }
                continue;
            }
            if (e.kind == 'B') {
                if (e.name == "svc.request") rid = arg(e, "rid");
                open.push_back(&e);
                continue;
            }
            // An end event closes the innermost open span of its name.
            auto it = open.end();
            while (it != open.begin() && (*(it - 1))->name != e.name) --it;
            if (it == open.begin()) throw Error("trace: unmatched end of " + e.name);
            const double ms = static_cast<double>(e.ts_us - (*(it - 1))->ts_us) / 1000.0;
            open.erase(it - 1, open.end());
            PhaseTimes& p = out[rid];
            if (e.name == "heuristic") {
                p.heur_ms += ms;
            } else if (e.name == "emit_cp") {
                p.cp_ms += ms;
            } else if (e.name == "search" || e.name == "portfolio") {
                p.cp_ms += ms;
                p.nodes += arg(e, "nodes");
            } else if (e.name == "svc.adapt") {
                p.adapt_ms += ms;
            }
        }
    }
    return out;
}

CodeRun run_code(const ir::Graph& merged, const sched::Schedule& s, Tracer* tracer) {
    static const arch::ArchSpec spec = arch::ArchSpec::eit();
    codegen::MachineProgram prog;
    {
        const Span span(tracer, "codegen.generate");
        prog = codegen::generate_code(spec, merged, s);
    }
    std::vector<codegen::ConfigBundle> bundles;
    {
        const Span span(tracer, "codegen.encode");
        bundles = codegen::encode_program(merged, prog);
    }
    sim::SimResult run;
    {
        const Span span(tracer, "sim");
        run = sim::simulate(spec, merged, prog);
    }
    if (!run.violations.empty()) throw Error("simulator: " + run.violations.front());
    if (!run.outputs_match) throw Error("simulated outputs differ from the DSL reference");
    if (run.cycles != s.makespan) {
        throw Error("simulated " + std::to_string(run.cycles) + " cycles for makespan " +
                    std::to_string(s.makespan));
    }
    return {static_cast<std::int64_t>(codegen::encoded_size_bytes(bundles)), run.cycles,
            run.reconfigurations};
}

CompileOutcome compile_kernel(const KernelSource& k, bool heuristic_only, Tracer* tracer) {
    static const arch::ArchSpec spec = arch::ArchSpec::eit();
    CompileOutcome out;
    std::unique_ptr<obs::TraceSink> sink;
    if (tracer != nullptr) sink = std::make_unique<obs::TraceSink>(obs::TraceLevel::Phase);
    model::KernelModel km;
    const Stopwatch time;
    try {
        ir::Graph g;
        {
            const Span span(tracer, "dsl");
            g = k.build();
        }
        ir::Graph merged;
        {
            const Span span(tracer, "ir");
            merged = ir::merge_pipeline_ops(g);
        }
        out.ir_nodes = g.num_nodes();
        out.nodes_removed = g.num_nodes() - merged.num_nodes();

        sched::ScheduleOptions so;
        so.spec = spec;
        so.timeout_ms = kDeadlineMs;
        so.heuristic_only = heuristic_only;
        {
            const Span span(tracer, "model.lower");
            km = sched::lower_for_schedule(merged, so);
        }
        sched::ModelSolveOptions mo = sched::model_solve_options(so);
        if (sink != nullptr) mo.trace = sink->main();
        sched::Schedule s;
        {
            const Span span(tracer, "sched");
            s = sched::schedule_model(km, mo);
        }
        if (!s.feasible()) throw Error("no schedule");
        out.makespan = s.makespan;
        out.proven = s.proven_optimal();
        out.search = s.stats;
        out.prop = s.prop_stats;

        std::vector<std::string> problems;
        {
            const Span span(tracer, "model.check");
            problems = model::check_schedule(km, s.start, s.slot, s.makespan);
        }
        if (!problems.empty()) throw Error("checker rejected the schedule: " + problems.front());

        const CodeRun code = run_code(merged, s, tracer);
        out.wall_ms = time.wall_ms();
        out.cpu_ms = time.cpu_ms();
        out.code_bytes = code.code_bytes;
        out.sim_cycles = code.cycles;
        out.sim_reconfigs = code.reconfigs;
    } catch (const std::exception& e) {
        if (out.wall_ms == 0.0) {
            out.wall_ms = time.wall_ms();
            out.cpu_ms = time.cpu_ms();
        }
        out.error = e.what();
    }
    if (sink != nullptr) {
        const auto phases = read_phases(*sink);
        if (const auto it = phases.find(0); it != phases.end()) out.phases = it->second;
        tracer->move("sched", "heur", out.phases.heur_ms);
        tracer->move("sched", "cp", out.phases.cp_ms);
        if (km.num_nodes() > 0 && km.memory_allocation) replay_ladder(km, out);
    }
    return out;
}

ModuloOutcome modulo_kernel(const KernelSource& k, Tracer* tracer) {
    ModuloOutcome out;
    const Stopwatch time;
    try {
        ir::Graph g;
        {
            const Span span(tracer, "dsl");
            g = k.build();
        }
        ir::Graph merged;
        {
            const Span span(tracer, "ir");
            merged = ir::merge_pipeline_ops(g);
        }
        pipeline::ModuloOptions mo;
        mo.include_reconfigs = true;
        mo.timeout_ms = kDeadlineMs;
        pipeline::ModuloResult r;
        {
            const Span span(tracer, "pipeline");
            r = pipeline::modulo_schedule(merged, mo);
        }
        out.wall_ms = time.wall_ms();
        out.cpu_ms = time.cpu_ms();
        if (!r.feasible()) throw Error("no modulo schedule");
        out.actual_ii = r.actual_ii;
        out.proven = r.status == cp::SolveStatus::Optimal;
    } catch (const std::exception& e) {
        if (out.wall_ms == 0.0) {
            out.wall_ms = time.wall_ms();
            out.cpu_ms = time.cpu_ms();
        }
        out.error = e.what();
    }
    return out;
}

void add_compile(PassResult& pass, const std::string& name, const CompileOutcome& c) {
    pass.op_ms.push_back(c.wall_ms);
    pass.op_cpu_ms.push_back(c.cpu_ms);
    if (!c.error.empty()) {
        ++pass.failed;
        std::cerr << "perfbench: " << name << " failed: " << c.error << "\n";
        return;
    }
    auto& x = pass.exact;
    x["makespan_cycles_sum"] += c.makespan;
    x["code_bytes_sum"] += static_cast<double>(c.code_bytes);
    x["dsl.ir_nodes"] += c.ir_nodes;
    x["ir.nodes_removed"] += c.nodes_removed;
    x["sim.cycles"] += c.sim_cycles;
    x["sim.reconfigs"] += c.sim_reconfigs;
    x["cp.nodes"] += static_cast<double>(c.search.nodes);
    x["cp.failures"] += static_cast<double>(c.search.failures);
    x["cp.cutoff_prunes"] += static_cast<double>(c.search.cutoff_prunes);
    x["cp.propagations"] += static_cast<double>(c.prop.propagations);
    x["cp.domain_changes"] += static_cast<double>(c.prop.domain_changes);
    x["cp.wakeups"] += static_cast<double>(c.prop.wakeups);
    x["cp.trail_bytes"] += static_cast<double>(c.prop.trail_bytes);
    x["cp.proven"] += c.proven ? 1 : 0;
    x["cp.solves"] += 1;
    if (c.phases.rungs > 0) {
        x["heur.rungs_tried"] += static_cast<double>(c.phases.rungs);
        x["heur.rungs_ok"] += static_cast<double>(c.phases.rungs_ok);
        pass.traced["heur.list_ms"] += c.list_ms;
        pass.traced["heur.alloc_ms"] += c.alloc_ms;
    }
}

}  // namespace perfbench
