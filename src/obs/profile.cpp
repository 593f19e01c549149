#include "obs/profile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>

#include "obs/events.h"

namespace arbmis::obs {

namespace {

std::atomic<Profiler*> g_profiler{nullptr};
std::atomic<std::uint64_t> g_next_generation{1};

thread_local std::uint32_t tl_lane = 0;

/// Per-thread buffer cache, keyed by profiler generation so a cache left
/// behind by a destroyed profiler is never written through.
struct ThreadCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache tl_cache;

}  // namespace

Profiler::Profiler()
    : generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

Profiler::~Profiler() = default;

Profiler* Profiler::active() noexcept {
  return g_profiler.load(std::memory_order_acquire);
}

Profiler::Buffer* Profiler::buffer_for_this_thread() {
  if (tl_cache.generation != generation_) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    tl_cache = {generation_, buffers_.back().get()};
  }
  return static_cast<Buffer*>(tl_cache.buffer);
}

void Profiler::record(const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns) {
  Buffer* buf = buffer_for_this_thread();
  buf->spans.push_back(
      Span{name, tl_lane, start_ns, end_ns - start_ns});
}

std::size_t Profiler::span_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) n += buf->spans.size();
  return n;
}

std::string Profiler::to_chrome_trace_json(const Manifest* manifest) const {
  std::vector<Span> spans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      spans.insert(spans.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.lane != b.lane) return a.lane < b.lane;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // enclosing scope before enclosed
  });

  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  if (spans.empty()) t0 = 0;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const Span& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"cat\":\"arbmis\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    out += std::to_string(s.lane);
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f}",
                  static_cast<double>(s.start_ns - t0) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += manifest != nullptr ? to_json_object(*manifest) : "null";
  out += '}';
  return out;
}

ScopedProfiler::ScopedProfiler(Profiler* p)
    : prev_(g_profiler.exchange(p, std::memory_order_acq_rel)) {}

ScopedProfiler::~ScopedProfiler() {
  g_profiler.store(prev_, std::memory_order_release);
}

void set_thread_lane(std::uint32_t lane) noexcept { tl_lane = lane; }

std::uint64_t profile_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace arbmis::obs
