// Blocking TCP client for the serving protocol (docs/SERVING.md).
//
// One connection, synchronous call/response; request ids auto-increment
// per client. The typed call(request) is serve::roundtrip over this
// socket: it returns the request's reply struct and throws ServeError
// when the server answered with a kError frame, ProtocolError on
// malformed reply bytes, and std::runtime_error on transport failures.
// Used by tools/mis_loadgen, tools/mis_scrape, bench/bench_serve, and the
// protocol tests.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.h"

namespace arbmis::serve {

class Client {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  Client(const std::string& host, std::uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Raw round trip: sends `request` (stamping the next request id) and
  /// returns the reply frame, whatever its type.
  Frame call(Frame request);

  /// Typed round trip: the reply struct of `request`'s message kind.
  template <RequestMessage Request>
  ReplyOf<Request> call(const Request& request) {
    return roundtrip([this](Frame f) { return call(std::move(f)); },
                     request);
  }
  StatsReply stats() { return call(StatsRequest{}); }
  DumpRecorderReply dump_recorder(bool clear_after = false) {
    return call(DumpRecorderRequest{clear_after});
  }

  /// Sends raw bytes as-is (malformed-frame tests) and reads one reply.
  Frame roundtrip_raw(const std::vector<std::uint8_t>& bytes);

 private:
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  FrameReader reader_;
};

}  // namespace arbmis::serve
