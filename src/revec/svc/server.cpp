#include "revec/svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "revec/support/assert.hpp"

namespace revec::svc {

namespace {

/// Write all of `line` plus a newline; MSG_NOSIGNAL so a client that hung
/// up surfaces as an error return, not SIGPIPE.
bool write_line(int fd, const std::string& line) {
    std::string out = line;
    out.push_back('\n');
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n =
            ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

struct Server::SessionState {
    int fd = -1;
    obs::TraceBuffer* track = nullptr;
};

Server::Server(std::string socket_path, Service& service, obs::TraceSink* trace)
    : socket_path_(std::move(socket_path)), service_(service), trace_(trace) {
    REVEC_EXPECTS(!socket_path_.empty());

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path_.size() >= sizeof(addr.sun_path)) {
        throw Error("socket path too long: " + socket_path_);
    }
    std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw Error(std::string("socket() failed: ") + std::strerror(errno));
    }
    ::unlink(socket_path_.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        const std::string why = std::strerror(errno);
        close_listener();
        throw Error("bind(" + socket_path_ + ") failed: " + why);
    }
    if (::listen(listen_fd_, 64) != 0) {
        const std::string why = std::strerror(errno);
        close_listener();
        ::unlink(socket_path_.c_str());
        throw Error("listen(" + socket_path_ + ") failed: " + why);
    }
}

Server::~Server() {
    stop_.store(true);
    for (std::thread& t : session_threads_) {
        if (t.joinable()) t.join();
    }
    close_listener();
    ::unlink(socket_path_.c_str());
}

void Server::close_listener() {
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void Server::stop() { stop_.store(true); }

void Server::run() {
    while (!stop_.load() && !service_.shutdown_requested()) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
        if (ready < 0) {
            if (errno == EINTR) continue;
            throw Error(std::string("poll() failed: ") + std::strerror(errno));
        }
        if (ready == 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            continue;  // transient accept failure; keep serving
        }
        auto session = std::make_shared<SessionState>();
        session->fd = fd;
        if (trace_ != nullptr) {
            // Register the track before the session thread spawns: the
            // session thread is its single writer.
            session->track =
                trace_->new_track("svc-session-" + std::to_string(next_session_));
        }
        ++next_session_;
        std::lock_guard<std::mutex> lock(sessions_mu_);
        sessions_.push_back(session);
        session_threads_.emplace_back(
            [this, session = std::move(session)] { session_main(session); });
    }

    // Unblock every session still parked in recv() so their threads join
    // promptly; in-flight requests finish first (the shutdown only cuts
    // the sockets, the Service drains normally).
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        for (const auto& session : sessions_) {
            if (session->fd >= 0) ::shutdown(session->fd, SHUT_RDWR);
        }
    }
    for (std::thread& t : session_threads_) {
        if (t.joinable()) t.join();
    }
    session_threads_.clear();
}

void Server::session_main(std::shared_ptr<SessionState> session) {
    std::string buffer;
    std::size_t scanned = 0;  // bytes of `buffer` already searched for '\n'
    char chunk[4096];
    bool open = true;
    while (open && !stop_.load()) {
        const ssize_t n = ::recv(session->fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;  // client hung up (or stop() shut the socket down)
        buffer.append(chunk, static_cast<std::size_t>(n));
        // Only the bytes just appended can hold the next newline.
        std::size_t begin = 0;  // start of the first unserved line
        std::size_t eol;
        while (open && (eol = buffer.find('\n', scanned)) != std::string::npos) {
            const std::string line = buffer.substr(begin, eol - begin);
            begin = scanned = eol + 1;
            if (line.empty()) continue;
            const std::string response = service_.handle_line(line, session->track);
            open = write_line(session->fd, response) && !service_.shutdown_requested();
        }
        buffer.erase(0, begin);
        scanned = buffer.size();
        open = open && !service_.shutdown_requested();
        if (open && buffer.size() > kMaxLineBytes) {
            // One client may not grow the buffer without bound: refuse the
            // line and close the session (the rest of it is never read).
            (void)write_line(session->fd,
                             service_.reject_line("request line longer than " +
                                                  std::to_string(kMaxLineBytes) + " bytes"));
            open = false;
        }
    }
    // Close under the sessions mutex: run()'s shutdown sweep reads fds
    // under the same lock, so it can never shut down a descriptor that
    // was just closed (and possibly reused) by an exiting session.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    ::close(session->fd);
    session->fd = -1;
}

}  // namespace revec::svc
