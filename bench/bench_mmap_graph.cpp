// Experiment P3: out-of-core graph storage (graph/storage/) — .gr write
// throughput, mmap vs buffered load throughput, and the end-to-end cost of
// running arb_mis off the mapped file instead of the in-memory Graph, with
// the storage-independence contract checked inline: every mapped run's
// observable output must hash identically to the in-memory run's.
//
// Prints a table and writes machine-readable results to
// results/BENCH_mmap_graph.json (path via --json). The JSON carries a
// gbench-style top-level "benchmarks" array (name + items_per_second), so
// tools/bench_gate.py gates rows from this file directly; the gated row
// loads the checked-in data/corpus_small.gr corpus in a loop. Exits
// nonzero on any equivalence mismatch so run_benches.sh fails loudly.
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_common.h"
#include "core/arb_mis.h"
#include "graph/storage/convert.h"
#include "graph/storage/gr_writer.h"
#include "graph/storage/mapped_graph.h"

namespace {

using namespace arbmis;

std::uint64_t hash_mis(const mis::MisResult& r) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const mis::MisState s : r.state) {
    h = util::mix64(h, static_cast<std::uint64_t>(s));
  }
  h = util::mix64(h, r.stats.rounds);
  h = util::mix64(h, r.stats.messages);
  h = util::mix64(h, r.stats.payload_bits);
  return h;
}

/// Scratch file `name` in the system temp directory ($TMPDIR, else /tmp).
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Peak resident set size of this process so far, in MiB (getrusage's
/// ru_maxrss is in KiB on Linux).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct CaseResult {
  std::string name;
  std::uint64_t items = 0;  ///< edges processed per rep
  double ms = 0.0;
  bool identical = true;  ///< rows without an equivalence leg stay true
  double items_per_second() const {
    return ms > 0.0 ? static_cast<double>(items) / (ms / 1000.0) : 0.0;
  }
};

/// --large: the offline end-to-end record for a generated ~10^7-edge graph
/// (ROADMAP item 1's stretch goal, run once and committed as
/// results/BENCH_mmap_large.json rather than part of the default sweep).
/// Pipeline mirrors real ingest: edge-list text -> convert (gr_convert's
/// parser) -> write .gr -> mmap load with verification -> arb_mis solve
/// off the mapped file; each stage timed once at full scale. The header
/// records the process's peak RSS over all stages.
int run_large(const bench::BenchOptions& options) {
  const std::string json_path = options.json_out.empty()
                                    ? "results/BENCH_mmap_large.json"
                                    : options.json_out;
  const graph::NodeId n = 2'500'000;
  const graph::NodeId arboricity = 4;

  bench::print_header(
      "P3-large", "end-to-end convert/load/solve at ~10^7 edges");
  util::Rng rng(options.seed);
  const graph::Graph g = graph::gen::hubbed_forest_union(
      n, arboricity, /*num_hubs=*/64, rng);
  const std::uint64_t m = g.num_edges();
  std::cout << "generated n=" << n << " m=" << m << " (arboricity <= "
            << arboricity << ")\n";

  // Untimed setup: materialize the edge-list text input gr_convert would
  // see. Timing starts at the parse, the first stage a user actually runs.
  // Each file is unlinked as soon as the run no longer opens it, and an
  // interrupted run's leftovers go before this one writes.
  const std::string text_path = temp_path("arbmis_large_edges.txt");
  const std::string gr_path = temp_path("arbmis_large.gr");
  std::remove(text_path.c_str());
  std::remove(gr_path.c_str());
  {
    std::ofstream text(text_path);
    for (const auto [u, v] : g.edges()) text << u << ' ' << v << '\n';
  }

  std::vector<CaseResult> cases;
  graph::storage::ConvertResult converted;
  {
    CaseResult c{"large_convert_text", m, 0.0, true};
    c.ms = bench::time_best_ms(1, [&] {
      std::ifstream in(text_path);
      converted = graph::storage::convert_edge_list(in, {});
    });
    cases.push_back(c);
  }
  std::remove(text_path.c_str());
  const bool convert_identical =
      converted.graph.num_nodes() == g.num_nodes() &&
      converted.graph.num_edges() == m;
  cases.back().identical = convert_identical;
  {
    CaseResult c{"large_write_gr", m, 0.0, true};
    c.ms = bench::time_best_ms(
        1, [&] { graph::storage::write_gr(gr_path, converted.graph); });
    cases.push_back(c);
  }
  {
    CaseResult c{"large_mmap_load_verify", m, 0.0, true};
    c.ms = bench::time_best_ms(1, [&] {
      const auto mapped = graph::storage::MappedGraph::open(gr_path);
      if (mapped.num_edges() != m) std::abort();
    });
    cases.push_back(c);
  }
  bool solve_identical = true;
  {
    const auto mapped = graph::storage::MappedGraph::open(gr_path);
    std::remove(gr_path.c_str());  // the mapping keeps the pages readable
    std::uint64_t memory_hash = 0;
    std::uint64_t mapped_hash = 0;
    CaseResult c{"large_arb_mis_mapped", m, 0.0, true};
    c.ms = bench::time_best_ms(1, [&] {
      mapped_hash =
          hash_mis(core::arb_mis(mapped, {.alpha = 2}, options.seed).mis);
    });
    memory_hash = hash_mis(
        core::arb_mis(converted.graph, {.alpha = 2}, options.seed).mis);
    solve_identical = mapped_hash == memory_hash;
    c.identical = solve_identical;
    cases.push_back(c);
  }

  util::Table table({"case", "edges", "ms", "edges_per_s", "identical"});
  table.set_double_precision(3);
  for (const CaseResult& c : cases) {
    table.row()
        .cell(c.name)
        .cell(c.items)
        .cell(c.ms)
        .cell(c.items_per_second())
        .cell(c.identical ? "yes" : "NO");
  }
  std::cout << '\n';
  table.print(std::cout);
  const double peak_mib = peak_rss_mib();
  std::cout << "\npeak RSS (whole process) " << peak_mib << " MiB\n";

  const bool all_ok = convert_identical && solve_identical;
  std::vector<bench::JsonFields> rows;
  for (const CaseResult& c : cases) {
    rows.push_back(bench::JsonFields()
                       .add("name", c.name)
                       .add("edges", c.items)
                       .add("best_ms", c.ms)
                       .add("items_per_second", c.items_per_second())
                       .add("identical", c.identical));
  }
  bench::write_report(json_path,
                      bench::JsonFields()
                          .add("bench", "mmap_graph_large")
                          .add("n", n)
                          .add("m", m)
                          .add("seed", options.seed)
                          .add("peak_rss_mib", peak_mib)
                          .add("identical", all_ok),
                      rows);
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::BenchOptions::parse(argc, argv, {"--large"});
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--large") return run_large(options);
  }
  const std::uint64_t reps = options.quick ? 2 : 3;
  const std::string json_path = options.json_out.empty()
                                    ? "results/BENCH_mmap_graph.json"
                                    : options.json_out;
  std::vector<graph::NodeId> sizes = {65536};
  if (!options.quick) sizes.push_back(262144);

  bench::print_header(
      "P3", "binary .gr storage — write/load throughput, mapped == memory");
  std::cout << "best of " << reps << " reps per cell\n\n";

  std::vector<CaseResult> cases;
  bool all_identical = true;

  for (const graph::NodeId n : sizes) {
    util::Rng rng(options.seed);
    const graph::Graph g = graph::gen::hubbed_forest_union(n, 2, 64, rng);
    const std::uint64_t m = g.num_edges();
    const std::string path =
        temp_path("arbmis_bench_" + std::to_string(n) + ".gr");
    const std::string suffix = "_n" + std::to_string(n);

    {
      CaseResult c{"write_gr" + suffix, m, 0.0, true};
      c.ms = bench::time_best_ms(
          reps, [&] { graph::storage::write_gr(path, g); });
      cases.push_back(c);
    }
    {
      CaseResult c{"mmap_load_verify" + suffix, m, 0.0, true};
      c.ms = bench::time_best_ms(reps, [&] {
        const auto mapped = graph::storage::MappedGraph::open(path);
        if (mapped.num_edges() != m) std::abort();
      });
      cases.push_back(c);
    }
    {
      graph::storage::GrMapOptions open_options;
      open_options.verify_structure = false;
      CaseResult c{"mmap_load_noverify" + suffix, m, 0.0, true};
      c.ms = bench::time_best_ms(reps, [&] {
        const auto mapped =
            graph::storage::MappedGraph::open(path, open_options);
        if (mapped.num_edges() != m) std::abort();
      });
      cases.push_back(c);
    }
    {
      graph::storage::GrMapOptions open_options;
      open_options.mode = graph::storage::GrMapMode::kBuffered;
      CaseResult c{"buffered_load_verify" + suffix, m, 0.0, true};
      c.ms = bench::time_best_ms(reps, [&] {
        const auto mapped =
            graph::storage::MappedGraph::open(path, open_options);
        if (mapped.num_edges() != m) std::abort();
      });
      cases.push_back(c);
    }
    {
      // End-to-end: the full pipeline off each storage backend; the mapped
      // run must reproduce the in-memory bytes.
      const auto mapped = graph::storage::MappedGraph::open(path);
      std::uint64_t memory_hash = 0;
      std::uint64_t mapped_hash = 0;
      CaseResult mem{"arb_mis_memory" + suffix, m, 0.0, true};
      mem.ms = bench::time_best_ms(reps, [&] {
        memory_hash =
            hash_mis(core::arb_mis(g, {.alpha = 2}, options.seed).mis);
      });
      cases.push_back(mem);
      CaseResult disk{"arb_mis_mapped" + suffix, m, 0.0, true};
      disk.ms = bench::time_best_ms(reps, [&] {
        mapped_hash =
            hash_mis(core::arb_mis(mapped, {.alpha = 2}, options.seed).mis);
      });
      disk.identical = mapped_hash == memory_hash;
      all_identical = all_identical && disk.identical;
      cases.push_back(disk);
    }
    std::remove(path.c_str());
  }

  {
    // The gated perf-smoke row: the checked-in corpus, loaded (mmap +
    // full verification) in a loop so the per-open cost amortizes to a
    // stable figure. items/s counts edges loaded across the whole loop.
    constexpr std::uint64_t kLoops = 1000;
    const std::string corpus = "data/corpus_small.gr";
    const auto probe = graph::storage::MappedGraph::open(corpus);
    CaseResult c{"corpus_small_mmap_x1000", probe.num_edges() * kLoops, 0.0,
                 true};
    c.ms = bench::time_best_ms(reps, [&] {
      for (std::uint64_t i = 0; i < kLoops; ++i) {
        const auto mapped = graph::storage::MappedGraph::open(corpus);
        if (mapped.num_nodes() != probe.num_nodes()) std::abort();
      }
    });
    cases.push_back(c);
  }

  util::Table table({"case", "edges", "best_ms", "edges_per_s", "identical"});
  table.set_double_precision(3);
  for (const CaseResult& c : cases) {
    table.row()
        .cell(c.name)
        .cell(c.items)
        .cell(c.ms)
        .cell(c.items_per_second())
        .cell(c.identical ? "yes" : "NO");
  }
  bench::emit(table, options);

  std::cout << "\nequivalence: "
            << (all_identical ? "mapped == memory on all rows" : "MISMATCH")
            << "\n";

  std::vector<bench::JsonFields> rows;
  for (const CaseResult& c : cases) {
    rows.push_back(bench::JsonFields()
                       .add("name", c.name)
                       .add("edges", c.items)
                       .add("best_ms", c.ms)
                       .add("items_per_second", c.items_per_second())
                       .add("identical", c.identical));
  }
  bench::write_report(json_path,
                      bench::JsonFields()
                          .add("bench", "mmap_graph")
                          .add("reps", reps)
                          .add("seed", options.seed)
                          .add("identical", all_identical),
                      rows);
  return all_identical ? 0 : 1;
}
