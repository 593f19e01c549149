#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace arbmis::serve {

namespace {

/// Pending-connection queue length passed to listen().
constexpr int kListenBacklog = 64;

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Full send with EINTR handling; returns false when the peer went away.
bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(MisService& service, const ServerOptions& options)
    : service_(service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    close_quiet(listen_fd_);
    throw std::runtime_error("serve: bad bind address " +
                             options.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string what = std::strerror(errno);
    close_quiet(listen_fd_);
    throw std::runtime_error("serve: bind/listen: " + what);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const std::string what = std::strerror(errno);
    close_quiet(listen_fd_);
    throw std::runtime_error("serve: getsockname: " + what);
  }
  port_ = ntohs(bound.sin_port);
}

Server::~Server() {
  stop();
  close_quiet(listen_fd_);
}

void Server::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down by stop()
    }
    std::vector<std::thread> finished;
    {
      const std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_.load(std::memory_order_acquire)) {
        close_quiet(fd);
        break;
      }
      finished.swap(finished_);
      connections_.emplace(fd,
                           std::thread([this, fd] { connection_loop(fd); }));
    }
    // Reap the connections that ended since the last accept, so a
    // long-lived daemon holds no stack of a connection that is gone.
    for (std::thread& t : finished) t.join();
  }
}

void Server::connection_loop(int fd) {
  FrameReader reader;
  std::uint8_t buf[1 << 16];
  Frame request;
  bool alive = true;
  while (alive) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error (including shutdown() from stop())
    try {
      reader.feed(buf, static_cast<std::size_t>(n));
      while (alive && reader.next(request)) {
        const Frame reply = service_.handle(request);
        const std::vector<std::uint8_t> bytes = encode_frame(reply);
        if (!send_all(fd, bytes.data(), bytes.size())) alive = false;
      }
    } catch (const ProtocolError& e) {
      // Framing is unrecoverable: best-effort error frame, then hang up.
      const std::vector<std::uint8_t> bytes = encode_frame(make_frame(
          MsgType::kError, 0,
          ErrorReply{static_cast<std::uint32_t>(ErrorCode::kBadRequest),
                     e.what()}));
      send_all(fd, bytes.data(), bytes.size());
      alive = false;
    }
  }
  // Close and hand this thread over for joining in one critical section:
  // stop() never shuts down a recycled fd, and the map entry is gone
  // before accept() can return the same fd number again.
  const std::lock_guard<std::mutex> lock(conn_mu_);
  ::shutdown(fd, SHUT_RDWR);
  close_quiet(fd);
  const auto self = connections_.find(fd);
  finished_.push_back(std::move(self->second));
  connections_.erase(self);
  conn_done_.notify_all();
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  // Wakes a blocked accept(). The fd stays open, and listen_fd_ unchanged,
  // until ~Server: the accept loop may still be reading it. A second
  // stop() finds nothing left to do.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> finished;
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    for (const auto& [fd, thread] : connections_) ::shutdown(fd, SHUT_RDWR);
    conn_done_.wait(lock, [this] { return connections_.empty(); });
    finished.swap(finished_);
  }
  for (std::thread& t : finished) t.join();
}

}  // namespace arbmis::serve
