// arbmis_serve: the MIS-as-a-service daemon (docs/SERVING.md).
//
//   arbmis_serve [--port N] [--port-file PATH] [--threads N]
//                [--cache N] [--full-fraction F] [--max-attempts N]
//                [--events=PATH[.bin]] [--metrics=PATH]
//                [--recorder-bytes=N] [--flightrec=PATH]
//                [--crash-dump=PATH] [--quiet]
//
// Binds a loopback TCP listener (port 0 = ephemeral; the bound port is
// printed and optionally written to --port-file so scripts can rendezvous),
// serves the length-prefixed binary protocol until SIGINT/SIGTERM, then
// shuts down cleanly so an attached event stream is flushed complete. As a
// host binary this is where graph/storage is wired in: LOAD_GRAPH path
// requests go through an injected MappedGraph loader, which the serve
// library itself never names.
//
// Introspection (docs/OBSERVABILITY.md): a metrics registry and a flight
// recorder are always attached, so METRICS and DUMP_RECORDER requests work
// without any flags. --flightrec names the auto-dump artifact written when
// a ModelChecker violation or certification failure fires; --crash-dump
// pre-opens a file descriptor and installs fatal-signal handlers that
// stream the ring into it (async-signal-safe) before re-raising.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "graph/storage/mapped_graph.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/parse.h"

namespace {

using arbmis::util::parse_number;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--port N] [--port-file PATH] [--threads N] [--cache N]\n"
         "       [--full-fraction F] [--max-attempts N] [--events=PATH]\n"
         "       [--metrics=PATH] [--recorder-bytes=N] [--flightrec=PATH]\n"
         "       [--crash-dump=PATH] [--quiet]\n"
         "  --port N           TCP port (default 0 = ephemeral)\n"
         "  --port-file PATH   write the bound port for rendezvous\n"
         "  --threads N        simulator worker threads (0 = serial)\n"
         "  --cache N          result-cache capacity (entries)\n"
         "  --full-fraction F  residual fraction in [0, 1] forcing full "
         "recompute\n"
         "  --max-attempts N   resilient_mis attempt budget\n"
         "  --events=PATH      telemetry event stream (.jsonl or .bin)\n"
         "  --metrics=PATH     write the metrics registry JSON at shutdown\n"
         "  --recorder-bytes=N flight-recorder ring capacity (default 1MiB)\n"
         "  --flightrec=PATH   auto-dump artifact for violation/cert seams\n"
         "  --crash-dump=PATH  pre-opened fatal-signal recorder dump\n"
         "  --quiet            suppress startup banner\n";
  return 1;
}

// Fatal-signal crash dump. The handler reads two relaxed atomics set up
// before the server starts, streams the ring via the async-signal-safe
// dump_to_fd, and re-raises with default disposition (SA_RESETHAND) so
// the process still dies with the original signal.
std::atomic<arbmis::obs::FlightRecorder*> g_crash_recorder{nullptr};
std::atomic<int> g_crash_fd{-1};

extern "C" void crash_dump_handler(int sig) {
  arbmis::obs::FlightRecorder* r =
      g_crash_recorder.load(std::memory_order_relaxed);
  const int fd = g_crash_fd.load(std::memory_order_relaxed);
  if (r != nullptr && fd >= 0) {
    r->dump_to_fd(fd, "fatal_signal");
    ::fsync(fd);
  }
  ::raise(sig);
}

void install_crash_handler() {
  struct sigaction sa{};
  sa.sa_handler = crash_dump_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    sigaction(sig, &sa, nullptr);
  }
}

}  // namespace

int main(int argc, char** argv) {
  arbmis::serve::ServiceOptions service_options;
  arbmis::serve::ServerOptions server_options;
  std::string port_file;
  std::string events_out;
  std::string metrics_out;
  std::string crash_dump_path;
  arbmis::obs::RecorderConfig recorder_config;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool parsed = true;
    if (arg == "--port" && i + 1 < argc) {
      parsed = parse_number(argv[++i], server_options.port);
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      parsed = parse_number(argv[++i], service_options.num_threads);
    } else if (arg == "--cache" && i + 1 < argc) {
      parsed = parse_number(argv[++i], service_options.max_cache_entries);
    } else if (arg == "--full-fraction" && i + 1 < argc) {
      parsed = parse_number(argv[++i],
                            service_options.full_recompute_fraction, 0.0, 1.0);
    } else if (arg == "--max-attempts" && i + 1 < argc) {
      parsed = parse_number(argv[++i], service_options.max_attempts);
    } else if (arg.rfind("--events=", 0) == 0) {
      events_out = arg.substr(9);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_out = arg.substr(10);
    } else if (arg.rfind("--recorder-bytes=", 0) == 0) {
      parsed = parse_number(arg.substr(17), recorder_config.max_bytes);
    } else if (arg.rfind("--flightrec=", 0) == 0) {
      recorder_config.dump_path = arg.substr(12);
    } else if (arg.rfind("--crash-dump=", 0) == 0) {
      crash_dump_path = arg.substr(13);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "arbmis_serve: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    }
    if (!parsed) {
      std::cerr << "arbmis_serve: cannot parse '" << arg;
      if (arg != argv[i]) std::cerr << " " << argv[i];
      std::cerr << "'\n";
      return usage(argv[0]);
    }
  }

  // Block the shutdown signals before any thread spawns so sigwait below
  // is the only consumer — every worker inherits the mask.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  try {
    // Path-based LOAD_GRAPH: host-side wiring of the sealed storage layer.
    service_options.gr_loader =
        [](const std::string& path) -> arbmis::serve::LoadedGraph {
      auto mapped = std::make_shared<arbmis::graph::storage::MappedGraph>(
          arbmis::graph::storage::MappedGraph::open(path));
      const arbmis::graph::GraphView view = mapped->view();
      return {std::move(mapped), view};
    };
    arbmis::serve::MisService service(service_options);

    arbmis::obs::Manifest manifest =
        arbmis::obs::make_manifest("arbmis_serve");
    manifest.threads = service_options.num_threads;

    // Always-on introspection: METRICS and DUMP_RECORDER answer from the
    // live registry and ring without requiring any flag.
    arbmis::obs::Registry metrics_registry;
    const arbmis::obs::ScopedRegistry registry_scope(&metrics_registry);
    arbmis::obs::FlightRecorder flight_recorder(recorder_config);
    flight_recorder.attach_manifest(manifest);
    const arbmis::obs::ScopedRecorder recorder_scope(&flight_recorder);
    if (!crash_dump_path.empty()) {
      const int fd = ::open(crash_dump_path.c_str(),
                            O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (fd < 0) {
        std::cerr << "arbmis_serve: cannot open --crash-dump "
                  << crash_dump_path << "\n";
        return 2;
      }
      g_crash_recorder.store(&flight_recorder, std::memory_order_relaxed);
      g_crash_fd.store(fd, std::memory_order_relaxed);
      install_crash_handler();
    }

    std::unique_ptr<arbmis::obs::EventSink> events;
    std::optional<arbmis::obs::ScopedSink> sink_scope;
    if (!events_out.empty()) {
      const bool binary =
          events_out.size() >= 4 &&
          events_out.compare(events_out.size() - 4, 4, ".bin") == 0;
      arbmis::obs::SinkConfig config;
      if (binary) {
        events = std::make_unique<arbmis::obs::BinaryWriter>(events_out,
                                                             config);
      } else {
        events = std::make_unique<arbmis::obs::JsonlWriter>(events_out,
                                                            config);
      }
      events->attach_manifest(manifest);
      sink_scope.emplace(events.get());
    }

    arbmis::serve::Server server(service, server_options);
    server.start();
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
    }
    if (!quiet) {
      std::cout << "arbmis_serve: listening on " << server_options.bind_address
                << ":" << server.port() << " (threads="
                << service_options.num_threads << ", cache="
                << service_options.max_cache_entries << ")\n"
                << std::flush;
    }

    int sig = 0;
    sigwait(&mask, &sig);
    if (!quiet) {
      std::cout << "arbmis_serve: signal " << sig << ", shutting down\n";
    }
    server.stop();
    sink_scope.reset();
    if (events != nullptr) events->flush();
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      out << metrics_registry.to_json(&manifest) << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "arbmis_serve: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
