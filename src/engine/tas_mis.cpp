// Engine (a): atomic test-and-set MIS.
//
// Round-synchronous local-minima elimination over static priorities: every
// alive node whose (priority, id) beats all alive neighbors joins the MIS
// and test-and-sets its neighborhood out of the alive set. Two adjacent
// nodes can never both be local minima, so joins are conflict-free; the
// only concurrent writes are same-value relaxed stores into the alive
// flags, which is why the engine is lock-free AND byte-identical across
// thread counts: each round's decisions read a snapshot frozen at the
// round barrier.
//
// Because priorities never change between rounds, the fixpoint is exactly
// the lexicographically-first MIS w.r.t. the (priority, id) order — the
// same set sequential greedy over that order produces — while the round
// count is the parallel dependency depth, O(log n) w.h.p. for random
// priorities (Fischer–Noever, arXiv:1707.05124).
//
// Dense remnant: once few nodes survive, rescanning their CSR adjacency
// per round touches mostly-dead neighbors. The engine then compacts the
// alive remnant into bitset adjacency rows and finishes with word-parallel
// neighborhood removal (alive &= ~row). The switch is a pure function of
// (n, alive count), so it cannot perturb determinism.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "engine/internal.h"

namespace arbmis::engine::internal {

namespace {

/// Dense-phase ceiling: 4096 alive nodes is a 2 MiB bit matrix — the
/// most the compaction is ever worth. The per-run cutoff is
/// min(kDenseCeiling, max(64, n/8)), so small graphs still exercise the
/// sparse parallel rounds instead of jumping straight to the serial
/// remnant.
constexpr std::uint64_t kDenseCeiling = 4096;

/// Finishes the remnant on compacted bitset adjacency, serially (the
/// remnant is small by construction).
/// `alive` flags double as input and output: members are recorded in
/// `result`, every compacted node ends not-alive.
void finish_dense(graph::GraphView g, std::span<const std::uint64_t> priority,
                  std::vector<std::atomic<std::uint8_t>>& alive,
                  EngineResult& result) {
  std::vector<graph::NodeId> ids;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v].load(std::memory_order_relaxed) != 0) ids.push_back(v);
  }
  const std::uint64_t a = ids.size();
  if (a == 0) return;
  const std::uint64_t words = (a + 63) / 64;

  // Dense index of each alive node; dead nodes keep a sentinel.
  std::vector<std::uint32_t> dense_index(g.num_nodes(), UINT32_MAX);
  for (std::uint64_t i = 0; i < a; ++i) dense_index[ids[i]] = static_cast<std::uint32_t>(i);

  // Adjacency rows restricted to the remnant.
  std::vector<std::uint64_t> rows(a * words, 0);
  for (std::uint64_t i = 0; i < a; ++i) {
    for (const graph::NodeId w : g.neighbors(ids[i])) {
      const std::uint32_t j = dense_index[w];
      if (j != UINT32_MAX) rows[i * words + j / 64] |= 1ULL << (j % 64);
    }
  }

  std::vector<std::uint64_t> live(words, 0);
  for (std::uint64_t i = 0; i < a; ++i) live[i / 64] |= 1ULL << (i % 64);
  std::vector<std::uint64_t> joined(words, 0);

  std::uint64_t remaining = a;
  while (remaining > 0) {
    ++result.rounds;
    std::fill(joined.begin(), joined.end(), 0);
    for (std::uint64_t wd = 0; wd < words; ++wd) {
      std::uint64_t bits = live[wd];
      while (bits != 0) {
        const auto bit = static_cast<std::uint64_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const std::uint64_t i = wd * 64 + bit;
        const graph::NodeId v = ids[i];
        bool is_min = true;
        // Local-minimum test over the still-live neighborhood.
        for (std::uint64_t nw = 0; nw < words && is_min; ++nw) {
          std::uint64_t nb = rows[i * words + nw] & live[nw];
          while (nb != 0) {
            const auto nbit = static_cast<std::uint64_t>(__builtin_ctzll(nb));
            nb &= nb - 1;
            const graph::NodeId u = ids[nw * 64 + nbit];
            if (less(priority, u, v)) {
              is_min = false;
              break;
            }
          }
        }
        if (is_min) joined[wd] |= 1ULL << bit;
      }
    }
    // Commit: members leave with their whole neighborhood, word-parallel.
    for (std::uint64_t wd = 0; wd < words; ++wd) {
      std::uint64_t bits = joined[wd];
      while (bits != 0) {
        const auto bit = static_cast<std::uint64_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const std::uint64_t i = wd * 64 + bit;
        result.in_mis[ids[i]] = 1;
        for (std::uint64_t nw = 0; nw < words; ++nw) {
          live[nw] &= ~rows[i * words + nw];
        }
        live[wd] &= ~(1ULL << bit);
      }
    }
    remaining = 0;
    for (const std::uint64_t wd : live) {
      remaining += static_cast<std::uint64_t>(__builtin_popcountll(wd));
    }
  }
  for (const graph::NodeId v : ids) {
    alive[v].store(0, std::memory_order_relaxed);
  }
}

}  // namespace

EngineResult solve_tas(graph::GraphView g, const EngineOptions& options,
                       std::span<const std::uint64_t> priority) {
  const graph::NodeId n = g.num_nodes();
  EngineResult result;
  result.in_mis.assign(n, 0);

  std::vector<std::atomic<std::uint8_t>> alive(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    alive[v].store(1, std::memory_order_relaxed);
  }
  std::vector<std::uint8_t> joined(n, 0);

  Workers workers(options.num_threads);
  std::vector<std::uint64_t> range_counts(workers.count() + 1, 0);
  const std::uint64_t dense_cutoff = std::min<std::uint64_t>(
      kDenseCeiling, std::max<std::uint64_t>(64, std::uint64_t{n} / 8));

  std::uint64_t alive_count = n;
  while (alive_count > 0) {
    if (alive_count <= dense_cutoff) {
      finish_dense(g, priority, alive, result);
      break;
    }
    ++result.rounds;

    // Phase A (barrier before and after): local minima mark themselves.
    // Reads the alive snapshot only; writes joined[v], the writer's own
    // slot.
    workers.run_ranges(n, [&](graph::NodeId begin, graph::NodeId end) {
      for (graph::NodeId v = begin; v < end; ++v) {
        if (alive[v].load(std::memory_order_relaxed) == 0) {
          joined[v] = 0;
          continue;
        }
        bool is_min = true;
        for (const graph::NodeId w : g.neighbors(v)) {
          if (alive[w].load(std::memory_order_relaxed) != 0 &&
              less(priority, w, v)) {
            is_min = false;
            break;
          }
        }
        joined[v] = is_min ? 1 : 0;
      }
    });

    // Phase B: winners commit and test-and-set their neighborhood out of
    // the alive set. Concurrent exchanges write the same value (0), so
    // the final flags are schedule-independent.
    workers.run_ranges(n, [&](graph::NodeId begin, graph::NodeId end) {
      for (graph::NodeId v = begin; v < end; ++v) {
        if (joined[v] == 0) continue;
        result.in_mis[v] = 1;
        alive[v].store(0, std::memory_order_relaxed);
        for (const graph::NodeId w : g.neighbors(v)) {
          alive[w].exchange(0, std::memory_order_relaxed);
        }
      }
    });

    // Phase C: survivors census (per-worker slots summed at the barrier).
    std::fill(range_counts.begin(), range_counts.end(), 0);
    std::atomic<std::uint32_t> next_slot{0};
    workers.run_ranges(n, [&](graph::NodeId begin, graph::NodeId end) {
      std::uint64_t count = 0;
      for (graph::NodeId v = begin; v < end; ++v) {
        count += alive[v].load(std::memory_order_relaxed);
      }
      range_counts[next_slot.fetch_add(1, std::memory_order_relaxed)] =
          count;
    });
    alive_count = 0;
    for (const std::uint64_t c : range_counts) alive_count += c;
  }
  return result;
}

}  // namespace arbmis::engine::internal
