// revecd — the scheduling service daemon (DESIGN §5i). Listens on a
// unix-domain socket for newline-delimited JSON solve requests (the
// KernelModel shape revecc --dump-model writes), serves exact repeats from
// a content-addressed schedule cache, multiplexes misses over a bounded
// shared solver pool, and answers every admitted request with a verified
// schedule — shedding to the heuristic anytime answer when the deadline or
// the queue cannot fit a full solve. SIGTERM/SIGINT (or a protocol
// shutdown request, see revecctl) drains and exits cleanly, optionally
// saving the service trace and metrics; --metrics-interval-s additionally
// snapshots both files periodically (tmp + atomic rename) so a live daemon
// can be watched without being asked to stop. --flight-dir arms the
// per-request flight recorder (DESIGN §5l): interesting requests dump
// their phase ring even when tracing is off.
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "revec/obs/metrics.hpp"
#include "revec/obs/trace.hpp"
#include "revec/support/strings.hpp"
#include "revec/svc/flags.hpp"
#include "revec/svc/server.hpp"
#include "revec/svc/service.hpp"

namespace {

revec::svc::Server* g_server = nullptr;

extern "C" void handle_signal(int) {
    if (g_server != nullptr) g_server->request_stop_from_signal();
}

void usage(std::ostream& os) { revec::svc::revecd_usage(os); }

/// Write `content` to `path` via a sibling tmp file and an atomic rename,
/// so watchers never read a half-written snapshot. Best-effort: a failed
/// snapshot is reported but never stops the daemon.
void snapshot_file(const std::string& path, const std::string& content) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        out << content;
        if (!out) {
            std::cerr << "revecd: snapshot write to " << tmp << " failed\n";
            std::remove(tmp.c_str());
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::cerr << "revecd: snapshot rename to " << path << " failed: "
                  << ec.message() << "\n";
        std::remove(tmp.c_str());
    }
}

/// The periodic snapshot loop: every interval, dump the live metrics JSON
/// (and the trace, when one is being recorded) with atomic renames. Runs
/// on its own thread; the condition variable lets shutdown interrupt a
/// sleep immediately.
class SnapshotLoop {
public:
    SnapshotLoop(revec::svc::Service& service, revec::obs::TraceSink* sink,
                 std::string metrics_path, std::string trace_path,
                 std::int64_t interval_s)
        : service_(service),
          sink_(sink),
          metrics_path_(std::move(metrics_path)),
          trace_path_(std::move(trace_path)) {
        thread_ = std::thread([this, interval_s] {
            std::unique_lock<std::mutex> lock(mu_);
            while (!cv_.wait_for(lock, std::chrono::seconds(interval_s),
                                 [this] { return stop_; })) {
                lock.unlock();
                snap();
                lock.lock();
            }
        });
    }

    ~SnapshotLoop() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

private:
    void snap() {
        if (!metrics_path_.empty()) {
            snapshot_file(metrics_path_, service_.metrics_json() + "\n");
        }
        if (sink_ != nullptr && !trace_path_.empty()) {
            // The sink serializes from per-track snapshots, so this is safe
            // while session and worker threads are still writing events.
            // Same format rule as TraceSink::save: .jsonl = JSONL stream.
            std::ostringstream os;
            if (revec::ends_with(trace_path_, ".jsonl")) {
                sink_->write_jsonl(os);
            } else {
                sink_->write_chrome_trace(os);
            }
            snapshot_file(trace_path_, os.str());
        }
    }

    revec::svc::Service& service_;
    revec::obs::TraceSink* sink_;
    std::string metrics_path_;
    std::string trace_path_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
    std::string socket_path;
    std::string trace_path;
    std::string metrics_path;
    std::int64_t metrics_interval_s = 0;
    revec::obs::TraceLevel trace_level = revec::obs::TraceLevel::Phase;
    revec::svc::Service::Config config;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(std::cout);
                return 0;
            } else if (revec::starts_with(arg, "--socket=")) {
                socket_path = arg.substr(9);
            } else if (revec::starts_with(arg, "--workers=")) {
                config.pool_workers = static_cast<int>(revec::parse_int(arg.substr(10)));
            } else if (revec::starts_with(arg, "--max-queue=")) {
                config.max_queue = static_cast<int>(revec::parse_int(arg.substr(12)));
            } else if (revec::starts_with(arg, "--cache-capacity=")) {
                config.cache_capacity =
                    static_cast<std::size_t>(revec::parse_int(arg.substr(17)));
            } else if (revec::starts_with(arg, "--trace=")) {
                trace_path = arg.substr(8);
            } else if (revec::starts_with(arg, "--trace-level=")) {
                const auto parsed = revec::obs::parse_trace_level(arg.substr(14));
                if (!parsed.has_value()) {
                    std::cerr << "revecd: bad --trace-level (off|phase|node)\n";
                    return 1;
                }
                trace_level = *parsed;
            } else if (revec::starts_with(arg, "--metrics=")) {
                metrics_path = arg.substr(10);
            } else if (revec::starts_with(arg, "--metrics-interval-s=")) {
                metrics_interval_s = revec::parse_int(arg.substr(21));
            } else if (revec::starts_with(arg, "--flight-dir=")) {
                config.flight.dir = arg.substr(13);
            } else if (revec::starts_with(arg, "--flight-keep=")) {
                config.flight.keep = static_cast<int>(revec::parse_int(arg.substr(14)));
            } else if (revec::starts_with(arg, "--slo-ms=")) {
                config.flight.slo_ms = revec::parse_int(arg.substr(9));
            } else {
                std::cerr << "revecd: unknown flag '" << arg << "'\n";
                usage(std::cerr);
                return 1;
            }
        }
        if (socket_path.empty()) {
            std::cerr << "revecd: --socket=PATH is required\n";
            usage(std::cerr);
            return 1;
        }
        if (config.pool_workers < 1 || config.max_queue < 0) {
            std::cerr << "revecd: --workers must be >= 1, --max-queue >= 0\n";
            return 1;
        }
        if (config.flight.keep < 1) {
            std::cerr << "revecd: --flight-keep must be >= 1\n";
            return 1;
        }
        if (metrics_interval_s < 0) {
            std::cerr << "revecd: --metrics-interval-s must be >= 0\n";
            return 1;
        }
        if (metrics_interval_s > 0 && metrics_path.empty() && trace_path.empty()) {
            std::cerr << "revecd: --metrics-interval-s needs --metrics or --trace\n";
            return 1;
        }

        std::unique_ptr<revec::obs::TraceSink> sink;
        if (!trace_path.empty() && trace_level != revec::obs::TraceLevel::Off) {
            sink = std::make_unique<revec::obs::TraceSink>(trace_level);
        }
        config.trace = sink.get();

        revec::svc::Service service(config);
        revec::svc::Server server(socket_path, service, sink.get());
        g_server = &server;
        std::signal(SIGTERM, handle_signal);
        std::signal(SIGINT, handle_signal);

        std::cerr << "revecd: listening on " << socket_path << " ("
                  << config.pool_workers << " workers, queue " << config.max_queue
                  << ", cache " << config.cache_capacity << ")\n";
        if (!config.flight.dir.empty()) {
            std::cerr << "revecd: flight recorder on (" << config.flight.dir
                      << ", keep " << config.flight.keep << ", slo "
                      << config.flight.slo_ms << " ms)\n";
        }
        {
            std::unique_ptr<SnapshotLoop> snapshots;
            if (metrics_interval_s > 0) {
                snapshots = std::make_unique<SnapshotLoop>(
                    service, sink.get(), metrics_path, trace_path, metrics_interval_s);
            }
            server.run();
        }
        g_server = nullptr;

        if (!metrics_path.empty()) {
            // metrics_json() refreshes the live queue/cache gauges.
            std::ofstream out(metrics_path);
            out << service.metrics_json() << '\n';
            if (!out) {
                std::cerr << "revecd: cannot write " << metrics_path << "\n";
                return 1;
            }
        }
        if (sink != nullptr) sink->save(trace_path);
        std::cerr << "revecd: shut down cleanly\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "revecd: " << e.what() << '\n';
        return 1;
    }
}
