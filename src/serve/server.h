// Blocking TCP front end for MisService (docs/SERVING.md).
//
// One accept loop plus one thread per connection; the accept loop joins
// the threads of ended connections as it goes. Every connection owns a
// FrameReader and forwards complete frames to MisService::handle, which
// serializes requests on the service mutex. Threading here affects only
// I/O concurrency — result bytes are governed by the simulator executor's
// thread count (ServiceOptions::num_threads) and are identical regardless
// of how many connections are in flight.
//
// A malformed frame (ProtocolError from the reader) sends one best-effort
// kError reply and drops the connection: framing errors are not
// recoverable mid-stream.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"

namespace arbmis::serve {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
  int backlog = 64;
};

class Server {
 public:
  /// Binds and listens immediately; throws std::runtime_error on failure.
  Server(MisService& service, const ServerOptions& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Runs the accept loop on a background thread (the daemon, tests,
  /// benches).
  void start();
  /// Stops accepting, shuts down every live connection and joins every
  /// connection thread.
  void stop();

 private:
  void accept_loop();
  void connection_loop(int fd);

  MisService& service_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::condition_variable conn_done_;  ///< a connection ended
  std::map<int, std::thread> connections_;  ///< live, keyed by fd
  std::vector<std::thread> finished_;  ///< ended, not yet joined
};

}  // namespace arbmis::serve
