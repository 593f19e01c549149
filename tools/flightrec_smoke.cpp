// flightrec_smoke: plants a CONGEST model-checker violation with a flight
// recorder attached and exits through the auto-dump seam.
//
//   flightrec_smoke --out PATH [--ring-bytes N]
//
// Runs a deliberately over-wide sender (40 message bits against a
// 16-bit edge budget) serially with fail_fast off, so the checker counts
// the violation, obs emits the kViolation event, and the attached
// recorder auto-dumps its ring to --out. Exit 0 requires that the
// violation was counted AND the dump file was written; the tier-1 ctest
// entry (tooling.flightrec_smoke) then round-trips the artifact through
// tools/trace_inspect.py --validate and summary via flightrec_smoke.py.
#include <cstdint>
#include <exception>
#include <iostream>
#include <span>
#include <string>
#include <string_view>

#include "graph/generators.h"
#include "obs/recorder.h"
#include "sim/network.h"
#include "util/parse.h"

namespace {

/// Sends one 40-bit message (32 payload + 8 tag) from node 0, then halts:
/// over the planted 16-bit edge budget, so the checker must object.
class OverWideSender : public arbmis::sim::Algorithm {
 public:
  std::string_view name() const override { return "overwide_sender"; }
  void on_start(arbmis::sim::NodeContext& ctx) override {
    if (ctx.id() == 0) ctx.send(0, 1, 0xFFFFFFFFULL);
  }
  void on_round(arbmis::sim::NodeContext& ctx,
                std::span<const arbmis::sim::Message>) override {
    ctx.halt();
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  std::size_t ring_bytes = std::size_t{64} << 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--ring-bytes" && i + 1 < argc &&
               arbmis::util::parse_number(argv[i + 1], ring_bytes)) {
      ++i;
    } else {
      std::cerr << "usage: " << argv[0] << " --out PATH [--ring-bytes N]\n";
      return 1;
    }
  }
  if (out.empty()) {
    std::cerr << "flightrec_smoke: --out is required\n";
    return 1;
  }

  try {
    arbmis::obs::RecorderConfig config;
    config.max_bytes = ring_bytes;
    config.dump_path = out;
    arbmis::obs::FlightRecorder recorder(config);
    const arbmis::obs::ScopedRecorder scope(&recorder);

    const arbmis::graph::Graph g = arbmis::graph::gen::path(2);
    arbmis::sim::NetworkOptions options;
    options.model_check.min_edge_bits = 16;
    options.model_check.log_n_factor = 1;
    options.model_check.fail_fast = false;  // count, emit, auto-dump
    arbmis::sim::Network net(g, /*seed=*/1, options);
    OverWideSender algorithm;
    net.run(algorithm, 4);

    const std::uint64_t violations = net.model_check_report().violations;
    const arbmis::obs::RecorderStats stats = recorder.stats();
    std::cout << "flightrec_smoke: violations=" << violations
              << " recorded_events=" << stats.recorded_events
              << " dumps=" << stats.dumps << " out=" << out << "\n";
    if (violations == 0) {
      std::cerr << "flightrec_smoke: planted violation was not detected\n";
      return 2;
    }
    if (stats.dumps == 0) {
      std::cerr << "flightrec_smoke: recorder auto-dump did not fire\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "flightrec_smoke: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
