#include "revec/svc/flags.hpp"

namespace revec::svc {

const std::vector<std::string>& revecd_known_flags() {
    static const std::vector<std::string> kFlags = {
        "--socket",      "--workers",
        "--max-queue",   "--cache-capacity",
        "--trace",       "--trace-level",
        "--metrics",     "--metrics-interval-s",
        "--flight-dir",  "--flight-keep",
        "--slo-ms",      "--help",
    };
    return kFlags;
}

const std::vector<std::string>& revecctl_known_flags() {
    static const std::vector<std::string> kFlags = {
        "--socket",       "--deadline-ms",
        "--threads",      "--seed",
        "--no-warm-start", "--heuristic-only",
        "--reuse",        "--rid",
        "--watch",        "--interval-ms",
        "--help",
    };
    return kFlags;
}

void revecd_usage(std::ostream& os) {
    os << "usage: revecd --socket=PATH [options]\n\n"
          "options:\n"
          "  --socket=PATH          unix socket to listen on (required)\n"
          "  --workers=N            solver pool threads (default 2)\n"
          "  --max-queue=N          queued solves beyond the workers (default 8)\n"
          "  --cache-capacity=N     schedule-cache entries, each served on an\n"
          "                         exact repeat and offered as a donor to\n"
          "                         warm-start edited models; 0 disables\n"
          "                         (default 128)\n"
          "  --trace=FILE           save the service trace on shutdown\n"
          "                         (.jsonl = JSONL stream, else Chrome JSON)\n"
          "  --trace-level=LEVEL    off | phase | node (default phase)\n"
          "  --metrics=FILE         save the metrics registry JSON on shutdown\n"
          "  --metrics-interval-s=N also snapshot --metrics (and --trace) every\n"
          "                         N seconds while running, via atomic rename,\n"
          "                         so a live daemon can be watched from files\n"
          "  --flight-dir=DIR       enable the per-request flight recorder:\n"
          "                         interesting requests (over the SLO, shed,\n"
          "                         errored, verify-failed, adapt-rejected)\n"
          "                         dump their phase ring as JSONL into DIR,\n"
          "                         even when --trace-level=off\n"
          "  --flight-keep=N        flight dumps retained, oldest pruned first\n"
          "                         (default 32)\n"
          "  --slo-ms=N             latency SLO for flight tail sampling; a\n"
          "                         request slower than N ms dumps its ring.\n"
          "                         -1 (default) = latency alone never dumps\n"
          "  --help                 this text\n\n"
          "exit codes:\n"
          "  0  clean shutdown (signal or protocol shutdown request)\n"
          "  1  usage error or failure to bind the socket\n";
}

void revecctl_usage(std::ostream& os) {
    os << "usage: revecctl --socket=PATH <command> [options]\n\n"
          "commands:\n"
          "  ping                   liveness probe\n"
          "  stats                  dump the daemon's metrics registry JSON\n"
          "  top                    render the daemon's live telemetry: queue\n"
          "                         depth, cache hit/near/miss/shed rates, and\n"
          "                         p50/p95/p99 latency per request phase\n"
          "  shutdown               ask the daemon to drain and exit\n"
          "  solve MODEL.json...    schedule each model (revecc --dump-model\n"
          "                         shape); repeats of the same model are\n"
          "                         served from the daemon's schedule cache\n\n"
          "top options:\n"
          "  --watch=N              keep watching: render N refreshes, each\n"
          "                         showing counter deltas since the previous\n"
          "                         one (0 = one-shot absolute view, default)\n"
          "  --interval-ms=N        delay between --watch refreshes\n"
          "                         (default 1000)\n\n"
          "solve options:\n"
          "  --deadline-ms=N        per-request budget; -1 none (default), 0\n"
          "                         forces the verified heuristic answer\n"
          "  --threads=N            solver threads per request, 1..64 (default 1)\n"
          "  --seed=N               jitter seed of the extra workers (default 0x5eed)\n"
          "  --no-warm-start        cold exact solve (no heuristic seed)\n"
          "  --heuristic-only       skip the exact solver\n"
          "  --reuse=MODE           off | exact | near (default near): how far\n"
          "                         the daemon may reuse cached schedules —\n"
          "                         exact-hash hits only, or additionally\n"
          "                         warm-start from an adapted near donor\n"
          "  --rid=HEX              correlation id (16 hex digits) stamped on\n"
          "                         every span the daemon emits for this\n"
          "                         request; batch requests use HEX, HEX+1, ...\n"
          "                         Default: a fresh random id per request\n\n"
          "Each response is printed as one JSON line. Exit codes: 0 = every\n"
          "response ok, 1 = usage/connection error, 2 = a response had\n"
          "ok=false.\n";
}

}  // namespace revec::svc
