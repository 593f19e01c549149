#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace arbmis::serve {

namespace {

void throw_errno(const std::string& what) {
  throw std::runtime_error("serve client: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve client: bad host address " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("connect");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Frame Client::call(Frame request) {
  request.request_id = next_request_id_++;
  return roundtrip_raw(encode_frame(request));
}

Frame Client::roundtrip_raw(const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  Frame reply;
  std::uint8_t buf[1 << 16];
  while (!reader_.next(reply)) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error("serve client: connection closed by server");
    }
    reader_.feed(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

}  // namespace arbmis::serve
