// Unix-domain-socket front end of revecd: accepts connections, spawns one
// session thread per client, reads newline-delimited request lines and
// writes the Service's response lines back. The accept loop polls with a
// short timeout so a stop() — from a signal handler flag or the protocol's
// shutdown request — is observed promptly; stopping shuts down every live
// session socket (SHUT_RDWR) so session threads unblock from read() and
// join cleanly.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "revec/svc/service.hpp"

namespace revec::svc {

class Server {
public:
    /// Longest request line a session buffers, newline excluded: far above
    /// any model the repository writes (QRD's request is 35 KB). A longer
    /// line is answered ok:false and its session closed.
    static constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

    /// Binds and listens on `socket_path` (an existing socket file is
    /// unlinked first — stale files from a killed daemon must not block a
    /// restart). Throws revec::Error on any socket failure.
    Server(std::string socket_path, Service& service, obs::TraceSink* trace = nullptr);

    /// Stops and joins if still running, removes the socket file.
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Accept-and-serve loop; returns after stop() was called or the
    /// service acknowledged a shutdown request. Joins every session thread
    /// before returning.
    void run();

    /// Ask run() to return. Safe to call from another thread; also safe
    /// (async-signal-wise) to request via the same flag pattern from a
    /// SIGTERM handler through request_stop_from_signal().
    void stop();

    /// Async-signal-safe stop request: only flips the atomic flag; the
    /// polling accept loop notices within one poll interval.
    void request_stop_from_signal() { stop_.store(true); }

    const std::string& socket_path() const { return socket_path_; }

private:
    struct SessionState;

    void session_main(std::shared_ptr<SessionState> session);
    void close_listener();

    std::string socket_path_;
    Service& service_;
    obs::TraceSink* trace_;
    int listen_fd_ = -1;
    std::atomic<bool> stop_{false};
    std::int64_t next_session_ = 0;

    std::mutex sessions_mu_;
    std::vector<std::shared_ptr<SessionState>> sessions_;
    std::vector<std::thread> session_threads_;
};

}  // namespace revec::svc
