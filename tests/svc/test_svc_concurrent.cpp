// Concurrent-clients coverage for the revecd core — the suite the TSan CI
// job leans on: N session threads hammering one Service with duplicate and
// distinct models, every response verify-clean, cache hits accounting for
// every duplicate, and the mutex-guarded metrics registry summing exactly
// (no torn counters). Plus the deadline-shed property under a saturated
// pool and the unix-socket server end to end, including its bound on the
// length of a request line.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "revec/apps/arf.hpp"
#include "revec/apps/matmul.hpp"
#include "revec/apps/qrd.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/check.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/json.hpp"
#include "revec/svc/client.hpp"
#include "revec/svc/server.hpp"
#include "revec/svc/service.hpp"

namespace revec::svc {
namespace {

std::vector<model::KernelModel> distinct_models() {
    std::vector<model::KernelModel> out;
    for (const ir::Graph& g :
         {apps::build_matmul(), apps::build_qrd(), apps::build_arf()}) {
        out.push_back(sched::lower_for_schedule(ir::merge_pipeline_ops(g),
                                                sched::ScheduleOptions{}));
    }
    return out;
}

Request solve_request(const model::KernelModel& km, std::int64_t id,
                      std::int64_t deadline_ms = -1) {
    Request req;
    req.kind = RequestKind::Solve;
    req.id = id;
    req.deadline_ms = deadline_ms;
    req.model = km;
    return req;
}

std::int64_t counter(const Service& service, const std::string& name) {
    const json::Value doc = json::parse(service.metrics_json());
    const json::Value* counters = doc.find("counters");
    if (counters == nullptr) return 0;
    const json::Value* v = counters->find(name);
    return v == nullptr ? 0 : static_cast<std::int64_t>(v->number);
}

TEST(SvcConcurrent, DuplicateAndDistinctClientsAllVerifyClean) {
    constexpr int kThreads = 6;
    constexpr int kPerThread = 4;

    obs::TraceSink sink(obs::TraceLevel::Phase);
    Service::Config config;
    config.pool_workers = 3;
    config.max_queue = 64;
    config.trace = &sink;
    Service service(config);
    const std::vector<model::KernelModel> models = distinct_models();

    // Warm the cache sequentially so every duplicate issued by the
    // concurrent phase has a deterministic resident entry to hit.
    for (std::size_t i = 0; i < models.size(); ++i) {
        const Response r = service.handle(
            solve_request(models[i], static_cast<std::int64_t>(i), 60000));
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.status, cp::SolveStatus::Optimal);
    }
    const std::int64_t warm_hits = counter(service, "svc.cache.hit");

    // One session track per client thread, registered before any thread
    // spawns (TraceBuffer is single-writer).
    std::vector<obs::TraceBuffer*> tracks;
    tracks.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        tracks.push_back(sink.new_track("session-" + std::to_string(t)));
    }

    std::atomic<int> bad{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int j = 0; j < kPerThread; ++j) {
                const model::KernelModel& km =
                    models[static_cast<std::size_t>(t + j) % models.size()];
                const Response r =
                    service.handle(solve_request(km, t * 100 + j, 60000), tracks[t]);
                const bool clean =
                    r.ok && r.has_schedule() &&
                    model::check_schedule(km, r.start, r.slot, r.makespan).empty();
                if (!clean) ++bad;
            }
        });
    }
    for (std::thread& c : clients) c.join();

    EXPECT_EQ(bad.load(), 0);
    // Every concurrent request was a duplicate of a warmed model: all of
    // them must have hit the cache...
    EXPECT_EQ(counter(service, "svc.cache.hit") - warm_hits, kThreads * kPerThread);
    // ...and the guarded registry must sum exactly — no torn counters.
    EXPECT_EQ(counter(service, "svc.req.count"),
              static_cast<std::int64_t>(models.size()) + kThreads * kPerThread);
    EXPECT_EQ(counter(service, "svc.cache.hit") + counter(service, "svc.cache.miss"),
              counter(service, "svc.req.count"));
    EXPECT_EQ(counter(service, "svc.req.status.optimal"),
              counter(service, "svc.req.count"));
}

TEST(SvcConcurrent, TightDeadlinesUnderSaturationAllAnswerVerifyClean) {
    // A saturated pool (no queue) under concurrent load: every request is
    // shed, and every shed answer must still be a verified schedule.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 3;

    Service::Config config;
    config.pool_workers = 1;
    config.max_queue = 0;
    config.cache_capacity = 0;  // force the solve path every time
    Service service(config);
    const std::vector<model::KernelModel> models = distinct_models();

    std::atomic<int> bad{0};
    std::atomic<int> not_shed{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int j = 0; j < kPerThread; ++j) {
                const model::KernelModel& km =
                    models[static_cast<std::size_t>(t + j) % models.size()];
                const Response r =
                    service.handle(solve_request(km, t * 100 + j, /*deadline_ms=*/5));
                if (!r.shed) ++not_shed;
                const bool clean =
                    r.ok && r.status == cp::SolveStatus::HeuristicFallback &&
                    r.has_schedule() &&
                    model::check_schedule(km, r.start, r.slot, r.makespan).empty();
                if (!clean) ++bad;
            }
        });
    }
    for (std::thread& c : clients) c.join();

    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(not_shed.load(), 0);
    EXPECT_EQ(counter(service, "svc.queue.shed"), kThreads * kPerThread);
}

TEST(SvcConcurrent, SocketServerEndToEnd) {
    const std::string socket_path =
        "/tmp/revec-svc-test-" + std::to_string(::getpid()) + ".sock";
    Service service(Service::Config{});
    Server server(socket_path, service);
    std::thread serving([&server] { server.run(); });

    const std::vector<model::KernelModel> models = distinct_models();
    constexpr int kClients = 3;
    std::atomic<int> bad{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            Client client(socket_path);
            const Response pong = client.roundtrip([] {
                Request req;
                req.kind = RequestKind::Ping;
                req.id = 99;
                return req;
            }());
            if (!pong.ok || !pong.ack) ++bad;
            for (int j = 0; j < 2; ++j) {
                const model::KernelModel& km = models[static_cast<std::size_t>(t)];
                const Response r =
                    client.roundtrip(solve_request(km, t * 10 + j, 60000));
                const bool clean =
                    r.ok && r.has_schedule() &&
                    model::check_schedule(km, r.start, r.slot, r.makespan).empty();
                if (!clean) ++bad;
            }
        });
    }
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(bad.load(), 0);

    // Stats over the wire, then the protocol shutdown drains the server.
    {
        Client client(socket_path);
        Request stats;
        stats.kind = RequestKind::Stats;
        stats.id = 1;
        const Response r = client.roundtrip(stats);
        ASSERT_TRUE(r.ok);
        const json::Value doc = json::parse(r.metrics_json);
        const json::Value* counters = doc.find("counters");
        ASSERT_TRUE(counters != nullptr);
        const json::Value* hits = counters->find("svc.cache.hit");
        ASSERT_TRUE(hits != nullptr);
        // Each client solved its model twice: the second ask always hits.
        EXPECT_GE(static_cast<std::int64_t>(hits->number), kClients);

        Request down;
        down.kind = RequestKind::Shutdown;
        down.id = 2;
        EXPECT_TRUE(client.roundtrip(down).ack);
    }
    serving.join();
    EXPECT_TRUE(service.shutdown_requested());
}

// One client may not grow a session's buffer without bound: a line longer
// than Server::kMaxLineBytes is answered ok:false, counted as a parse
// error, and its session is closed; new sessions are still served.
TEST(SvcConcurrent, OverlongLineIsRefusedAndItsSessionClosed) {
    const std::string socket_path =
        "/tmp/revec-svc-test-long-" + std::to_string(::getpid()) + ".sock";
    Service service(Service::Config{});
    Server server(socket_path, service);
    std::thread serving([&server] { server.run(); });

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    const timeval timeout{10, 0};  // a server that never answers fails, not hangs
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    bool sent = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
    const std::string chunk(std::size_t{1} << 16, 'x');  // no newline anywhere
    for (std::size_t left = Server::kMaxLineBytes + 1; sent && left > 0;) {
        const ssize_t n = ::send(fd, chunk.data(), std::min(left, chunk.size()), MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        sent = n > 0;
        if (sent) left -= static_cast<std::size_t>(n);
    }
    EXPECT_TRUE(sent);
    std::string reply;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;  // 0: the server closed the session
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    {
        Client client(socket_path);
        Request ping;
        ping.kind = RequestKind::Ping;
        ping.id = 1;
        EXPECT_TRUE(client.roundtrip(ping).ack);
        Request down;
        down.kind = RequestKind::Shutdown;
        down.id = 2;
        EXPECT_TRUE(client.roundtrip(down).ack);
    }
    serving.join();

    ASSERT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
    const Response refused = parse_response(reply.substr(0, reply.size() - 1));
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.error.find("longer than"), std::string::npos) << refused.error;
    EXPECT_EQ(counter(service, "svc.req.parse_errors"), 1);
}

}  // namespace
}  // namespace revec::svc
