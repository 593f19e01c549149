// Experiment P2: round throughput of the message arena, the simulator's
// inbox, on the inline lane (threads 0) and on the worker pool, with the
// byte-equivalence contract checked inline: on every cell the run's
// observable output (MIS states + run stats) must hash identically to the
// inline lane's. Prints a table and writes machine-readable results to
// results/BENCH_sim_arena.json (path via --json); exits nonzero on any
// equivalence mismatch, so the sweep in run_benches.sh fails loudly.
#include <chrono>
#include <fstream>
#include <functional>
#include <limits>
#include <thread>

#include "bench_common.h"
#include "mis/metivier.h"
#include "sim/network.h"
#include "util/stats.h"

namespace {

using namespace arbmis;

double time_best_ms(std::uint64_t reps, const std::function<void()>& body) {
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t x) {
  return util::mix64(h, x);
}

/// Order-sensitive fold of a run's observable output (same digest as P1),
/// so "identical" means byte-identical output, not merely the same MIS.
std::uint64_t hash_mis(const mis::MisResult& r) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const mis::MisState s : r.state) {
    h = fold(h, static_cast<std::uint64_t>(s));
  }
  h = fold(h, r.stats.rounds);
  h = fold(h, r.stats.messages);
  h = fold(h, r.stats.payload_bits);
  h = fold(h, r.stats.max_edge_load);
  return h;
}

struct CaseResult {
  std::string name;
  graph::NodeId n = 0;
  std::uint32_t threads = 0;  ///< 0 = the inline lane
  std::uint64_t messages = 0;
  double arena_ms = 0.0;
  bool identical = false;
  double items_per_second() const {
    return arena_ms > 0.0 ? static_cast<double>(messages) / (arena_ms / 1000.0)
                          : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::parse(argc, argv);
  const std::uint32_t hardware = std::thread::hardware_concurrency();
  const std::uint32_t threads =
      options.threads != 0 ? options.threads
                           : std::max<std::uint32_t>(hardware, 2);
  const std::uint64_t reps = options.quick ? 2 : 3;
  const std::string json_path = options.json_out.empty()
                                    ? "results/BENCH_sim_arena.json"
                                    : options.json_out;
  std::vector<graph::NodeId> sizes = {4096, 32768};
  if (!options.quick) sizes.push_back(262144);

  bench::print_header(
      "P2", "message-arena round throughput — byte-identical output");
  std::cout << "threads (threaded cells): " << threads
            << "  (hardware_concurrency: " << hardware << ")\n"
            << "best of " << reps << " reps per cell\n\n";

  std::vector<CaseResult> cases;
  for (const graph::NodeId n : sizes) {
    util::Rng rng(options.seed);
    const graph::Graph g = graph::gen::union_of_random_forests(n, 2, rng);
    std::uint64_t inline_hash = 0;
    for (const std::uint32_t t : {0u, threads}) {
      CaseResult c;
      c.n = n;
      c.threads = t;
      c.name = "metivier_arb2_n" + std::to_string(n) +
               (t == 0 ? "_inline" : "_t" + std::to_string(t));
      std::uint64_t hash = 0;
      c.arena_ms = time_best_ms(reps, [&] {
        const sim::ScopedNumThreads workers(t);
        const mis::MisResult r = mis::MetivierMis::run(g, options.seed);
        hash = hash_mis(r);
        c.messages = r.stats.messages;
      });
      if (t == 0) inline_hash = hash;
      c.identical = hash == inline_hash;
      cases.push_back(c);
    }
  }

  util::Table table(
      {"case", "messages", "arena_ms", "arena_items_per_s", "identical"});
  table.set_double_precision(3);
  for (const CaseResult& c : cases) {
    table.row()
        .cell(c.name)
        .cell(c.messages)
        .cell(c.arena_ms)
        .cell(c.items_per_second())
        .cell(c.identical ? "yes" : "NO");
  }
  bench::emit(table, options);

  bool all_identical = true;
  for (const CaseResult& c : cases) {
    all_identical = all_identical && c.identical;
  }
  std::cout << "\nequivalence: "
            << (all_identical ? "all cases identical" : "MISMATCH") << "\n";

  std::ofstream json(json_path);
  if (json) {
    json << "{\n"
         << "  \"bench\": \"sim_arena\",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"hardware_concurrency\": " << hardware << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"seed\": " << options.seed << ",\n"
         << "  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const CaseResult& c = cases[i];
      json << "    {\"name\": \"" << c.name << "\", \"n\": " << c.n
           << ", \"threads\": " << c.threads
           << ", \"messages\": " << c.messages
           << ", \"arena_ms\": " << c.arena_ms
           << ", \"arena_items_per_second\": " << c.items_per_second()
           << ", \"identical\": " << (c.identical ? "true" : "false")
           << "}"
           << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cout << "could not open " << json_path << " for writing\n";
  }
  return all_identical ? 0 : 1;
}
