// serve_edits: an in-process svc::Service driven through handle_line (so
// wire parsing and serialization are counted) by three closed-loop clients
// against one pool worker. Each client replays its own kernel families -- a
// paper kernel (MATMUL, QRD or ARF) and a small random kernel the seed
// draws from a fixed list -- with a fixed mix of first sights (miss), exact
// repeats (hit), one-op latency edits (near) and deadline_ms=0 requests
// (shed). One thread sends the clients' requests in turn, so a request's
// process CPU time is its own cost. A pass is one replay against a fresh
// service, so the cache outcomes repeat exactly.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <random>

#include "flow.hpp"
#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/model/fingerprint.hpp"
#include "revec/model/json.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/json.hpp"
#include "revec/svc/protocol.hpp"
#include "revec/svc/service.hpp"

namespace perfbench {

using namespace revec;

namespace {

constexpr int kClients = 3;
constexpr std::int64_t kDeadlineMs = 30000;
// Random families: 12-op vector-only kernels (apps::build_random_kernel,
// by kernel seed), a fixed list from which the workload seed draws one per
// client. When this benchmark was written, each one's base and first edit
// proved optimal within 200 nodes, its base schedule simulated cleanly,
// and its makespan was 19-23 cc, so every draw costs about the same.
constexpr int kRandomOps = 12;
constexpr unsigned kRandomFamilies[] = {
    1527598674, 3376945445, 929356274,  3109931217, 4168787087, 1719840920,
    397141327,  1559320178, 3610260384, 2486788338, 1979964379, 4185134931,
    955194540,  1767433268, 1614135653, 799717815,  3058717282, 675278393,
    2598424483, 3099814447, 2461280113, 2078793646, 527382591,  1577903697,
};

enum class Outcome { Hit, Near, Miss, Shed };

const char* outcome_name(Outcome o) {
    switch (o) {
        case Outcome::Hit: return "hit";
        case Outcome::Near: return "near";
        case Outcome::Miss: return "miss";
        case Outcome::Shed: return "shed";
    }
    return "?";
}

/// One kernel family: the lowered base model and two one-op latency edits.
struct Family {
    std::string name;
    ir::Graph graph;  ///< merged IR of the base model, for codegen and simulation
    model::KernelModel base, edit1, edit2;
};

/// One request of a client's script, serialized before timing starts.
struct Step {
    const Family* family;
    int version;  ///< 0 = base, 1 = edit1, 2 = edit2
    Outcome expect;
    std::uint64_t rid;
    std::string line;

    const model::KernelModel& model() const {
        return version == 0 ? family->base : version == 1 ? family->edit1 : family->edit2;
    }
};

/// Change a node's latency consistently (node field and its out-edges).
void set_latency(model::KernelModel& m, int id, int latency) {
    m.nodes[static_cast<std::size_t>(id)].latency = latency;
    for (model::ModelEdge& e : m.edges) {
        if (e.src == id) e.latency = latency;
    }
}

/// The k-th multi-cycle op's latency drops by one -- the edit an iterative
/// kernel tuner produces, which keeps the structural fingerprint.
model::KernelModel edited(const model::KernelModel& base, int k) {
    model::KernelModel m = base;
    int seen = 0;
    for (const int op : m.ops) {
        if (m.node(op).latency <= 1) continue;
        if (seen++ == k) {
            set_latency(m, op, m.node(op).latency - 1);
            return m;
        }
    }
    throw Error("kernel has fewer than " + std::to_string(k + 1) + " multi-cycle ops");
}

Family make_family(std::string name, const ir::Graph& dsl_graph) {
    Family f;
    f.name = std::move(name);
    f.graph = ir::merge_pipeline_ops(dsl_graph);
    f.base = sched::lower_for_schedule(f.graph, sched::ScheduleOptions{});
    f.edit1 = edited(f.base, 0);
    f.edit2 = edited(f.base, 1);
    return f;
}

/// The random family of kernel seed `kernel_seed`.
Family random_family(unsigned kernel_seed) {
    apps::RandomKernelOptions o;
    o.seed = kernel_seed;
    o.num_ops = kRandomOps;
    o.use_matrix = false;
    return make_family("random(seed=" + std::to_string(o.seed) + ")",
                       apps::build_random_kernel(o));
}

std::string request_line(const model::KernelModel& m, std::int64_t id, std::uint64_t rid,
                         std::int64_t deadline_ms) {
    svc::Request req;
    req.kind = svc::RequestKind::Solve;
    req.id = id;
    req.rid = rid;
    req.deadline_ms = deadline_ms;
    req.model = m;
    return svc::serialize_request(req);
}

struct Shape {
    int version;
    Outcome expect;
    std::int64_t deadline_ms;
};

/// Paper families: 10 requests -- a miss, seven hits, a near edit and a
/// shed edit. They carry the hit path, so the median request is the same
/// for every seed.
const std::vector<Shape> kPaperShape = {
    {0, Outcome::Miss, kDeadlineMs}, {0, Outcome::Hit, kDeadlineMs},
    {0, Outcome::Hit, kDeadlineMs},  {0, Outcome::Hit, kDeadlineMs},
    {1, Outcome::Near, kDeadlineMs}, {1, Outcome::Hit, kDeadlineMs},
    {0, Outcome::Hit, kDeadlineMs},  {2, Outcome::Shed, 0},
    {0, Outcome::Hit, kDeadlineMs},  {0, Outcome::Hit, kDeadlineMs},
};

/// Random families: one of each outcome.
const std::vector<Shape> kRandomShape = {
    {0, Outcome::Miss, kDeadlineMs},
    {0, Outcome::Hit, kDeadlineMs},
    {1, Outcome::Near, kDeadlineMs},
    {2, Outcome::Shed, 0},
};

/// A client's script: its paper family, then its random family.
std::vector<Step> make_script(const Family& paper, const Family& random, int client) {
    std::vector<Step> steps;
    for (const auto& [f, shape] :
         {std::pair{&paper, &kPaperShape}, std::pair{&random, &kRandomShape}}) {
        for (const Shape& s : *shape) {
            Step step{f, s.version, s.expect, 0, {}};
            const auto n = static_cast<std::uint64_t>(steps.size());
            step.rid = (static_cast<std::uint64_t>(client + 1) << 32) | (n + 1);
            step.line = request_line(step.model(), static_cast<std::int64_t>(n + 1), step.rid,
                                     s.deadline_ms);
            steps.push_back(std::move(step));
        }
    }
    return steps;
}

/// A client's replies, one per script step, in order.
struct ClientRun {
    std::vector<std::string> responses;  ///< empty when handle_line threw
    std::vector<double> ms;
    std::vector<double> cpu_ms;
    std::vector<std::string> errors;     ///< what handle_line threw, or ""
};

/// Check one response against its request; returns the failure, or "".
std::string check_response(const Step& step, const svc::Response& r, Outcome got) {
    if (!r.ok) return "response ok=false: " + r.error;
    if (r.rid != step.rid) return "response rid does not match the request";
    if (got != step.expect) {
        return std::string("served as ") + outcome_name(got) + ", expected " +
               outcome_name(step.expect);
    }
    if (step.expect != Outcome::Shed && r.status != cp::SolveStatus::Optimal) {
        return std::string("status ") + svc::status_name(r.status) + ", expected optimal";
    }
    const auto problems = model::check_schedule(step.model(), r.start, r.slot, r.makespan);
    if (!problems.empty()) return "checker rejected the served schedule: " + problems.front();
    return {};
}

/// Generate and simulate code for a served schedule of a family's base
/// model; returns the encoded size.
std::int64_t run_served_code(const Family& f, const svc::Response& r) {
    sched::Schedule s;
    s.start = r.start;
    s.slot = r.slot;
    s.makespan = r.makespan;
    s.slots_used = r.slots_used;
    s.status = r.status;
    return run_code(f.graph, s, nullptr).code_bytes;
}

/// Sum of a histogram in the service's metrics JSON (0 when absent).
double histogram_sum(const json::Value& metrics, const char* name) {
    const json::Value* hists = metrics.find("histograms");
    const json::Value* h = hists != nullptr ? hists->find(name) : nullptr;
    const json::Value* sum = h != nullptr ? h->find("sum") : nullptr;
    return sum != nullptr ? sum->number : 0.0;
}

double counter(const json::Value& metrics, const char* name) {
    const json::Value* counters = metrics.find("counters");
    const json::Value* c = counters != nullptr ? counters->find(name) : nullptr;
    return c != nullptr ? c->number : 0.0;
}

class ServeEdits final : public Workload {
public:
    explicit ServeEdits(std::uint64_t seed) {
        families_.push_back(make_family("MATMUL", apps::build_matmul()));
        families_.push_back(make_family("QRD", apps::build_qrd()));
        families_.push_back(make_family("ARF", apps::build_arf()));
        // Distinct random families: the first kClients of a seeded shuffle.
        std::vector<unsigned> draw(std::begin(kRandomFamilies), std::end(kRandomFamilies));
        std::mt19937_64 rng(seed);
        for (std::size_t c = 0; c < kClients; ++c) {
            std::swap(draw[c], draw[c + rng() % (draw.size() - c)]);
            families_.push_back(random_family(draw[c]));
        }
        for (int c = 0; c < kClients; ++c) {
            scripts_.push_back(make_script(families_[static_cast<std::size_t>(c)],
                                           families_[static_cast<std::size_t>(kClients + c)], c));
        }
    }

    void setup() override {
        // A fresh service and one cheap proof through it (QRD: two nodes).
        svc::Service service(config(nullptr));
        const svc::Response r = svc::parse_response(
            service.handle_line(request_line(families_[1].base, 1, 1, kDeadlineMs)));
        if (!r.ok || r.status != cp::SolveStatus::Optimal) {
            throw Error("warm-up request failed: " + r.error);
        }
    }

    PassResult run_pass(bool traced, HostProbe& probe) override {
        PassResult pass;
        std::unique_ptr<obs::TraceSink> sink;
        std::vector<obs::TraceBuffer*> tracks(kClients, nullptr);
        if (traced) {
            sink = std::make_unique<obs::TraceSink>(obs::TraceLevel::Phase);
            for (int c = 0; c < kClients; ++c) {
                tracks[static_cast<std::size_t>(c)] =
                    sink->new_track("client-" + std::to_string(c));
            }
        }
        svc::Service service(config(sink.get()));
        Tracer* const tracer = traced ? &pass.layers : nullptr;
        std::vector<ClientRun> runs(kClients);
        std::size_t steps = 0;
        for (const auto& script : scripts_) steps = std::max(steps, script.size());
        // Each client's next request goes out once its previous one has
        // been answered; the clients take turns.
        for (std::size_t n = 0; n < steps; ++n) {
            for (std::size_t c = 0; c < scripts_.size(); ++c) {
                if (n >= scripts_[c].size()) continue;
                probe.between_ops();
                send(service, scripts_[c][n], tracks[c], tracer, runs[c]);
            }
        }

        const json::Value metrics = json::parse(service.metrics_json());
        auto& x = pass.exact;
        x["svc.adapted"] = counter(metrics, "svc.reuse.adapted");
        x["svc.adapt_rejected"] = counter(metrics, "svc.reuse.adapt_rejected");
        for (std::size_t c = 0; c < scripts_.size(); ++c) check_client(scripts_[c], runs[c], pass);
        if (traced) attribute(*sink, metrics, runs, pass);
        return pass;
    }

private:
    static svc::Service::Config config(obs::TraceSink* sink) {
        svc::Service::Config cfg;
        cfg.pool_workers = 1;
        cfg.trace = sink;
        return cfg;
    }

    static void send(svc::Service& service, const Step& step, obs::TraceBuffer* track,
                     Tracer* tracer, ClientRun& run) {
        std::string response, error;
        const Stopwatch time;
        try {
            const Span span(tracer, "svc");
            response = service.handle_line(step.line, track);
        } catch (const std::exception& e) {
            error = e.what();
        }
        run.ms.push_back(time.wall_ms());
        run.cpu_ms.push_back(time.cpu_ms());
        run.responses.push_back(std::move(response));
        run.errors.push_back(std::move(error));
    }

    void check_client(const std::vector<Step>& script, const ClientRun& run,
                      PassResult& pass) const {
        auto& x = pass.exact;
        for (std::size_t i = 0; i < run.responses.size(); ++i) {
            const Step& step = script[i];
            pass.op_ms.push_back(run.ms[i]);
            pass.op_cpu_ms.push_back(run.cpu_ms[i]);
            std::string problem;
            try {
                if (!run.errors[i].empty()) throw Error(run.errors[i]);
                const svc::Response r = svc::parse_response(run.responses[i]);
                const Outcome got = r.cache_hit  ? Outcome::Hit
                                    : r.near_hit ? Outcome::Near
                                    : r.shed     ? Outcome::Shed
                                                 : Outcome::Miss;
                problem = check_response(step, r, got);
                if (problem.empty()) {
                    x["svc.requests"] += 1;
                    x[std::string("svc.") + outcome_name(got)] += 1;
                    x["makespan_cycles_sum"] += r.makespan;
                    if (step.version == 0) {
                        x["code_bytes_sum"] += static_cast<double>(run_served_code(*step.family, r));
                    }
                    pass.traced[std::string("svc.handle_ms.") + outcome_name(got)] += run.ms[i];
                }
            } catch (const std::exception& e) {
                problem = e.what();
            }
            if (!problem.empty()) {
                ++pass.failed;
                std::cerr << "perfbench: " << step.family->name << " request " << i
                          << " failed: " << problem << "\n";
            }
        }
    }

    /// Traced pass: split each request's time in the client's "svc" span
    /// into the library's own phases, and time the service's sub-calls
    /// beside the operation.
    void attribute(const obs::TraceSink& sink, const json::Value& metrics,
                   const std::vector<ClientRun>& runs, PassResult& pass) const {
        const auto phases = read_phases(sink);
        for (const auto& [rid, p] : phases) {
            if (rid == 0) continue;
            pass.layers.move("svc", "heur", p.heur_ms);
            pass.layers.move("svc", "cp", p.cp_ms);
            pass.layers.move("svc", "svc.adapt", p.adapt_ms);
            pass.exact["cp.nodes"] += static_cast<double>(p.nodes);
            pass.exact["heur.rungs_tried"] += static_cast<double>(p.rungs);
            pass.exact["heur.rungs_ok"] += static_cast<double>(p.rungs_ok);
        }
        pass.layers.move("svc", "svc.queue", histogram_sum(metrics, "svc.phase.queue_wait_ms"));

        auto& t = pass.traced;
        for (int c = 0; c < kClients; ++c) {
            const auto& script = scripts_[static_cast<std::size_t>(c)];
            const auto& run = runs[static_cast<std::size_t>(c)];
            for (std::size_t i = 0; i < run.responses.size(); ++i) {
                if (!run.errors[i].empty()) continue;
                const Step& step = script[i];
                auto t0 = Clock::now();
                const svc::Request req = svc::parse_request(step.line);
                t["svc.parse_ms"] += ms_since(t0);
                t0 = Clock::now();
                (void)model::canonical_hash(*req.model);
                t["model.hash_ms"] += ms_since(t0);
                t0 = Clock::now();
                (void)model::structural_fingerprint(*req.model);
                t["model.fingerprint_ms"] += ms_since(t0);
                if (step.version != 0) {
                    t0 = Clock::now();
                    (void)model::diff(step.family->base, *req.model);
                    t["model.diff_ms"] += ms_since(t0);
                }
                const svc::Response resp = svc::parse_response(run.responses[i]);
                t0 = Clock::now();
                (void)svc::serialize_response(resp);
                t["svc.serialize_ms"] += ms_since(t0);
            }
        }
    }

    std::vector<Family> families_;
    std::vector<std::vector<Step>> scripts_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_edits(std::uint64_t seed) {
    return std::make_unique<ServeEdits>(seed);
}

}  // namespace perfbench
