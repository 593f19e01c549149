// The process-wide worker pool (src/sim/thread_pool.h): the partition
// contract, the lowest-index rethrow, inline nested dispatch, serialized
// concurrent callers, and the lane tag a pooled Network phase leaves on
// its calling thread. Every case runs on ThreadPool::shared() at the
// counts 1, P - 1, P and 2P + 1, P being the pool's participants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "mis/luby.h"
#include "obs/profile.h"
#include "sim/network.h"
#include "sim/thread_pool.h"

namespace arbmis {
namespace {

std::vector<std::uint32_t> counts_to_check() {
  const std::uint32_t p = sim::ThreadPool::shared().participants();
  return {1, p - 1, p, 2 * p + 1};
}

/// What a task throws: its own index.
struct Thrown {
  std::uint32_t index;
};

TEST(ThreadPool, EveryIndexRunsOncePerDispatchOnItsParticipant) {
  sim::ThreadPool& pool = sim::ThreadPool::shared();
  const std::uint32_t p = pool.participants();
  ASSERT_GE(p, 1u);
  constexpr std::uint32_t kDispatches = 10000;
  for (const std::uint32_t count : counts_to_check()) {
    std::vector<std::atomic<std::uint32_t>> hits(count);
    std::vector<std::thread::id> ran_on(count);
    for (std::uint32_t d = 1; d <= kDispatches; ++d) {
      pool.run(count, [&](std::uint32_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        ran_on[i] = std::this_thread::get_id();
      });
      for (std::uint32_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), d) << "count=" << count << " index=" << i;
        // Participant i mod P runs index i; participant 0 is the caller.
        ASSERT_EQ(ran_on[i], i % p == 0 ? std::this_thread::get_id()
                                        : ran_on[i % p])
            << "count=" << count << " index=" << i;
      }
    }
  }
}

TEST(ThreadPool, RethrowsTheLowestThrowingIndexAfterRunningEveryIndex) {
  sim::ThreadPool& pool = sim::ThreadPool::shared();
  const std::uint32_t p = pool.participants();
  for (const std::uint32_t count : counts_to_check()) {
    if (count == 0) continue;
    // Index 0 is the caller's; p and 2p are participant 0's later
    // indices; the last throw set lets only the workers throw.
    const std::vector<std::set<std::uint32_t>> throw_sets = {
        {0, 2, p, 2 * p}, {count - 1}, {1, count - 1}};
    for (const std::set<std::uint32_t>& throwing : throw_sets) {
      std::uint32_t lowest = std::numeric_limits<std::uint32_t>::max();
      for (const std::uint32_t i : throwing) {
        if (i < count) lowest = std::min(lowest, i);
      }
      if (lowest == std::numeric_limits<std::uint32_t>::max()) continue;
      std::vector<std::atomic<std::uint32_t>> hits(count);
      bool caught = false;
      try {
        pool.run(count, [&](std::uint32_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          if (throwing.count(i) != 0) throw Thrown{i};
        });
      } catch (const Thrown& thrown) {
        caught = true;
        EXPECT_EQ(thrown.index, lowest) << "count=" << count;
      }
      EXPECT_TRUE(caught) << "count=" << count;
      for (std::uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1u) << "count=" << count << " index=" << i;
      }
      // The next dispatch runs every index and throws nothing.
      std::vector<std::atomic<std::uint32_t>> after(count);
      EXPECT_NO_THROW(pool.run(count, [&](std::uint32_t i) {
        after[i].fetch_add(1, std::memory_order_relaxed);
      }));
      for (std::uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(after[i].load(), 1u) << "count=" << count << " index=" << i;
      }
    }
  }
}

TEST(ThreadPool, NestedRunRunsInlineOnTheTasksThread) {
  sim::ThreadPool& pool = sim::ThreadPool::shared();
  const std::uint32_t p = pool.participants();
  for (const std::uint32_t count : counts_to_check()) {
    const std::uint32_t inner_count = 2 * p + 1;
    std::vector<std::vector<std::uint32_t>> order(count);
    std::vector<std::uint8_t> same_thread(count, 0);
    pool.run(count, [&](std::uint32_t i) {
      const std::thread::id outer = std::this_thread::get_id();
      bool same = true;
      pool.run(inner_count, [&](std::uint32_t j) {
        order[i].push_back(j);
        same = same && std::this_thread::get_id() == outer;
      });
      same_thread[i] = same ? 1 : 0;
    });
    for (std::uint32_t i = 0; i < count; ++i) {
      ASSERT_EQ(order[i].size(), inner_count) << "count=" << count;
      for (std::uint32_t j = 0; j < inner_count; ++j) {
        EXPECT_EQ(order[i][j], j) << "count=" << count << " outer=" << i;
      }
      EXPECT_EQ(same_thread[i], 1) << "count=" << count << " outer=" << i;
    }
    // A nested throw keeps the contract: all inner indices run, the
    // lowest throw comes back out of the inner run.
    std::vector<std::uint32_t> caught(count, 0);
    pool.run(count, [&](std::uint32_t i) {
      try {
        pool.run(inner_count, [&](std::uint32_t j) {
          if (j % 2 == 1) throw Thrown{j};
        });
      } catch (const Thrown& thrown) {
        caught[i] = thrown.index;
      }
    });
    for (std::uint32_t i = 0; i < count; ++i) {
      EXPECT_EQ(caught[i], 1u) << "count=" << count;
    }
  }
}

TEST(ThreadPool, ConcurrentCallersAreSerializedAndCountExactly) {
  sim::ThreadPool& pool = sim::ThreadPool::shared();
  constexpr std::uint32_t kDispatches = 2000;
  for (const std::uint32_t count : counts_to_check()) {
    std::atomic<std::uint32_t> running[2] = {0, 0};
    std::atomic<bool> overlapped{false};
    std::vector<std::atomic<std::uint32_t>> hits[2] = {
        std::vector<std::atomic<std::uint32_t>>(count),
        std::vector<std::atomic<std::uint32_t>>(count)};
    const auto caller = [&](int me) {
      for (std::uint32_t d = 0; d < kDispatches; ++d) {
        pool.run(count, [&](std::uint32_t i) {
          running[me].fetch_add(1);
          if (running[1 - me].load() != 0) overlapped = true;
          hits[me][i].fetch_add(1, std::memory_order_relaxed);
          running[me].fetch_sub(1);
        });
      }
    };
    std::thread first(caller, 0);
    std::thread second(caller, 1);
    first.join();
    second.join();
    for (int me = 0; me < 2; ++me) {
      for (std::uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[me][i].load(), kDispatches)
            << "count=" << count << " caller=" << me << " index=" << i;
      }
    }
    // A count of 1, or a pool of one participant, runs inline on each
    // caller; only pooled dispatches take the callers' lock.
    if (count > 1 && pool.participants() > 1) {
      EXPECT_FALSE(overlapped.load()) << "count=" << count;
    }
  }
}

/// The lanes (Chrome trace tids) on which spans named `name` were recorded.
std::set<std::uint32_t> lanes_of(const std::string& trace,
                                 const std::string& name) {
  std::set<std::uint32_t> lanes;
  const std::string key = "\"name\":\"" + name + "\"";
  const std::string tid = "\"tid\":";
  for (std::size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    const std::size_t lane = trace.find(tid, at) + tid.size();
    lanes.insert(static_cast<std::uint32_t>(std::stoul(trace.substr(lane))));
  }
  return lanes;
}

TEST(ThreadPool, PooledNetworkMergesOnLaneZero) {
  const graph::Graph g = graph::gen::path(256);
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    obs::Profiler profiler;
    {
      const obs::ScopedProfiler attach(&profiler);
      sim::NetworkOptions options;
      options.num_threads = threads;
      sim::Network net(g, /*seed=*/11, options);
      mis::LubyBMis algorithm(g);
      EXPECT_TRUE(net.run(algorithm, 1u << 12).all_halted);
    }
    const std::string trace = profiler.to_chrome_trace_json();
    EXPECT_EQ(lanes_of(trace, "net.merge"), std::set<std::uint32_t>{0})
        << "threads=" << threads;
    std::set<std::uint32_t> shard_lanes;
    for (std::uint32_t lane = 1; lane <= threads; ++lane) {
      shard_lanes.insert(lane);
    }
    EXPECT_EQ(lanes_of(trace, "net.shard"), shard_lanes)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace arbmis
