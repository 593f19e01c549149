// mis_scrape: live-introspection client for a running arbmis_serve
// (docs/SERVING.md, docs/OBSERVABILITY.md).
//
//   mis_scrape (--port N | --port-file PATH) [--host H]
//              [--json-out=PATH] [--interval MS] [--count N] [--deltas]
//              [--dump-recorder=PATH] [--clear] [--quiet]
//
// Issues METRICS requests against the daemon and renders the
// arbmis.metrics.v2 reply: run totals only, with no entry per simulated
// round, so a reply does not grow with the rounds the daemon runs. Default
// output is a Prometheus-style text exposition on stdout (counters,
// gauges, histogram count/max), suitable for eyeballs and
// node_exporter-textfile-style collection. --json-out writes one reply
// verbatim — the file is a standard arbmis.metrics.v2 document, so
// tools/bench_gate.py --metrics-current can gate on it (the serve-smoke CI
// job does exactly that). With --count > 1 the daemon is polled every
// --interval ms; --deltas switches stdout to one JSON line per poll
// carrying counter increments since the previous poll. Numeric flags are
// read whole (util/parse.h): a value that is not a number in the flag's
// range prints the usage and exits 1.
//
// --dump-recorder fetches the daemon's flight-recorder ring (a complete
// ARBMISEV artifact; see obs/recorder.h) and writes it to PATH, where
// tools/trace_inspect.py can validate/summarize/diff it. --clear empties
// the ring server-side after the dump.
//
// The scrape itself is a request: a METRICS reply never includes the
// request that produced it (MisService feeds the registry after building
// the reply), so a single scrape of an idle daemon sees exactly the
// preceding workload's counters.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "util/parse.h"

namespace {

using arbmis::util::parse_number;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " (--port N | --port-file PATH) [--host H]\n"
         "       [--json-out=PATH] [--interval MS] [--count N] [--deltas]\n"
         "       [--dump-recorder=PATH] [--clear] [--quiet]\n"
         "  --port N              daemon TCP port\n"
         "  --port-file PATH      read the port from a rendezvous file\n"
         "  --host H              daemon address (default 127.0.0.1)\n"
         "  --json-out=PATH       write one raw arbmis.metrics.v2 reply\n"
         "  --interval MS         poll period for --count > 1 (default "
         "1000)\n"
         "  --count N             number of scrapes (default 1)\n"
         "  --deltas              JSON lines of counter deltas per poll\n"
         "  --dump-recorder=PATH  fetch the flight-recorder ring artifact\n"
         "  --clear               clear the ring server-side after the "
         "dump\n"
         "  --quiet               suppress the summary line on stderr\n";
  return 1;
}

/// Prometheus metric name: [a-zA-Z_][a-zA-Z0-9_]*, prefixed "arbmis_".
std::string prom_name(const std::string& name) {
  std::string out = "arbmis_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

// -- Minimal scanner for the arbmis.metrics.v2 document ---------------------
// The registry emits this document itself (obs/registry.cpp), so its shape
// is fixed: flat string->integer maps for "counters"/"gauges" and one level
// of nesting under "histograms". A purpose-built scanner keeps the tool
// dependency-free (the toolchain has no C++ JSON library baked in).

/// Position just past `"key":` at `from` or npos.
std::size_t find_key(const std::string& doc, const std::string& key,
                     std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = doc.find(needle, from);
  return at == std::string::npos ? std::string::npos : at + needle.size();
}

/// Parses the flat object starting at doc[at] == '{' into name -> value.
std::map<std::string, long long> parse_flat(const std::string& doc,
                                            std::size_t at) {
  std::map<std::string, long long> out;
  if (at == std::string::npos || at >= doc.size() || doc[at] != '{') {
    return out;
  }
  std::size_t i = at + 1;
  while (i < doc.size() && doc[i] != '}') {
    if (doc[i] != '"') {
      ++i;
      continue;
    }
    const std::size_t name_end = doc.find('"', i + 1);
    if (name_end == std::string::npos) break;
    const std::string name = doc.substr(i + 1, name_end - i - 1);
    std::size_t v = name_end + 1;
    while (v < doc.size() && (doc[v] == ':' || doc[v] == ' ')) ++v;
    out[name] = std::strtoll(doc.c_str() + v, nullptr, 10);
    i = doc.find_first_of(",}", v);
    if (i == std::string::npos) break;
  }
  return out;
}

/// Returns the offset of the top-level section object, skipping the
/// manifest (which, when present, could embed a matching key in a string).
std::size_t section_at(const std::string& doc, const std::string& section) {
  std::size_t from = 0;
  const std::size_t manifest = find_key(doc, "manifest", 0);
  if (manifest != std::string::npos && manifest < doc.size() &&
      doc[manifest] == '{') {
    std::size_t depth = 0;
    std::size_t i = manifest;
    for (; i < doc.size(); ++i) {
      if (doc[i] == '{') ++depth;
      if (doc[i] == '}' && --depth == 0) break;
    }
    from = i;
  }
  return find_key(doc, section, from);
}

struct HistogramSummary {
  long long total = 0;
  long long max_value = 0;
};

/// name -> {total, max_value} for every entry under "histograms".
std::map<std::string, HistogramSummary> parse_histograms(
    const std::string& doc) {
  std::map<std::string, HistogramSummary> out;
  std::size_t at = section_at(doc, "histograms");
  if (at == std::string::npos || at >= doc.size() || doc[at] != '{') {
    return out;
  }
  std::size_t i = at + 1;
  while (i < doc.size() && doc[i] != '}') {
    if (doc[i] != '"') {
      ++i;
      continue;
    }
    const std::size_t name_end = doc.find('"', i + 1);
    if (name_end == std::string::npos) break;
    const std::string name = doc.substr(i + 1, name_end - i - 1);
    std::size_t body = doc.find('{', name_end);
    if (body == std::string::npos) break;
    std::size_t depth = 0;
    std::size_t end = body;
    for (; end < doc.size(); ++end) {
      if (doc[end] == '{') ++depth;
      if (doc[end] == '}' && --depth == 0) break;
    }
    const std::string entry = doc.substr(body, end - body + 1);
    HistogramSummary h;
    std::size_t v = find_key(entry, "total", 0);
    if (v != std::string::npos) {
      h.total = std::strtoll(entry.c_str() + v, nullptr, 10);
    }
    v = find_key(entry, "max_value", 0);
    if (v != std::string::npos) {
      h.max_value = std::strtoll(entry.c_str() + v, nullptr, 10);
    }
    out[name] = h;
    i = end + 1;
    if (i < doc.size() && doc[i] == ',') ++i;
  }
  return out;
}

void print_prometheus(std::ostream& os, const std::string& doc) {
  for (const auto& [name, value] :
       parse_flat(doc, section_at(doc, "counters"))) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] :
       parse_flat(doc, section_at(doc, "gauges"))) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << value << "\n";
  }
  for (const auto& [name, h] : parse_histograms(doc)) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << "_count counter\n"
       << p << "_count " << h.total << "\n"
       << "# TYPE " << p << "_max gauge\n"
       << p << "_max " << h.max_value << "\n";
  }
}

void print_deltas(std::ostream& os, std::uint64_t seq,
                  const std::map<std::string, long long>& prev,
                  const std::map<std::string, long long>& cur,
                  const std::map<std::string, long long>& gauges) {
  os << "{\"seq\":" << seq << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : cur) {
    const auto it = prev.find(name);
    const long long delta = value - (it == prev.end() ? 0 : it->second);
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << delta;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << value;
  }
  os << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool have_port = false;
  std::string json_out;
  std::string dump_out;
  bool clear_after = false;
  bool deltas = false;
  bool quiet = false;
  std::uint64_t count = 1;
  std::uint32_t interval_ms = 1000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool parsed = true;
    if (arg == "--port" && i + 1 < argc) {
      parsed = parse_number(argv[++i], port);
      have_port = true;
    } else if (arg == "--port-file" && i + 1 < argc) {
      std::ifstream in(argv[++i]);
      std::string text;
      if (!(in >> text) || !parse_number(text, port)) {
        std::cerr << "mis_scrape: cannot read port from " << argv[i] << "\n";
        return 1;
      }
      have_port = true;
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else if (arg == "--interval" && i + 1 < argc) {
      parsed = parse_number(argv[++i], interval_ms);
    } else if (arg == "--count" && i + 1 < argc) {
      parsed = parse_number(argv[++i], count);
    } else if (arg == "--deltas") {
      deltas = true;
    } else if (arg.rfind("--dump-recorder=", 0) == 0) {
      dump_out = arg.substr(16);
    } else if (arg == "--clear") {
      clear_after = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "mis_scrape: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    }
    if (!parsed) {
      std::cerr << "mis_scrape: cannot parse '" << arg << " " << argv[i]
                << "'\n";
      return usage(argv[0]);
    }
  }
  if (!have_port) {
    std::cerr << "mis_scrape: --port or --port-file is required\n";
    return usage(argv[0]);
  }

  try {
    arbmis::serve::Client client(host, port);

    if (!dump_out.empty()) {
      const arbmis::serve::DumpRecorderReply dump =
          client.call(arbmis::serve::DumpRecorderRequest{clear_after});
      if (dump.recorder_attached == 0) {
        std::cerr << "mis_scrape: daemon has no flight recorder attached\n";
        return 2;
      }
      std::ofstream out(dump_out, std::ios::binary);
      out.write(dump.artifact.data(),
                static_cast<std::streamsize>(dump.artifact.size()));
      if (!out) {
        std::cerr << "mis_scrape: cannot write " << dump_out << "\n";
        return 2;
      }
      if (!quiet) {
        std::cerr << "mis_scrape: wrote " << dump.artifact.size()
                  << " bytes (" << dump.buffered_events << " buffered, "
                  << dump.evicted_events << " evicted) to " << dump_out
                  << "\n";
      }
    }

    std::map<std::string, long long> prev_counters;
    for (std::uint64_t seq = 0; seq < count; ++seq) {
      if (seq > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
      const arbmis::serve::MetricsReply reply =
          client.call(arbmis::serve::MetricsRequest{});
      if (!json_out.empty() && seq == 0) {
        std::ofstream out(json_out);
        out << reply.json << "\n";
        if (!out) {
          std::cerr << "mis_scrape: cannot write " << json_out << "\n";
          return 2;
        }
      }
      const std::map<std::string, long long> counters =
          parse_flat(reply.json, section_at(reply.json, "counters"));
      if (deltas) {
        print_deltas(std::cout, seq, prev_counters, counters,
                     parse_flat(reply.json, section_at(reply.json, "gauges")));
      } else {
        if (seq > 0) std::cout << "\n";
        print_prometheus(std::cout, reply.json);
      }
      std::cout << std::flush;
      prev_counters = counters;
    }
  } catch (const std::exception& e) {
    std::cerr << "mis_scrape: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
