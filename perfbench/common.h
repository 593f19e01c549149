// Shared helpers of the benchmark driver: clocks, sample statistics,
// process memory, the drift-calibration kernel, the span tracer and a
// small JSON writer. Nothing here touches a module of the program beyond
// obs::profile_now_ns(), the clock the obs::Profiler stamps spans with.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.h"
#include "util/rng.h"

namespace perfbench {

using arbmis::util::mix64;

inline std::uint64_t now_ns() { return arbmis::obs::profile_now_ns(); }

inline double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

/// Linear-interpolated percentile (p in [0, 100]); sorts a copy.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> xs) { return percentile(xs, 50.0); }

/// VmHWM (peak resident set) of a process in MiB, from /proc/<pid>/status;
/// 0 when the field cannot be read.
inline double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

/// Runs `fn(out)` in a forked child and returns the `count` numbers it
/// wrote to `out`: work whose memory must stay out of this process's
/// measured peak RSS. Call it while this process runs no other thread.
template <typename Fn>
std::vector<double> in_child(std::size_t count, Fn fn) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  const auto bytes = static_cast<ssize_t>(count * sizeof(double));
  std::vector<double> out(count);
  if (pid == 0) {
    ::close(fds[0]);
    try {
      fn(out.data());
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(::write(fds[1], out.data(), static_cast<std::size_t>(bytes)) ==
                    bytes
                ? 0
                : 3);
  }
  ::close(fds[1]);
  ssize_t got = 0;
  while (got < bytes) {
    const ssize_t r = ::read(fds[0], reinterpret_cast<char*>(out.data()) + got,
                             static_cast<std::size_t>(bytes - got));
    if (r <= 0) break;
    got += r;
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != bytes || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("benchmark child process failed");
  }
  return out;
}

inline volatile std::uint64_t calibration_sink = 0;

/// Fixed ALU-plus-memory kernel: a dependent walk over a 256 KiB
/// (L2-resident) table mixed through util::mix64, then dependent loads
/// over a 64 MiB table, past any last-level cache like the offline graph's
/// round loop. Its time moves with the machine, never with the program, so
/// it separates drift from a change. It runs in a child process, so its
/// tables never count in the measured peak RSS.
inline double calibration_ms() {
  return in_child(1, [](double* out) {
    constexpr std::size_t kSmall = std::size_t{1} << 15;
    constexpr std::size_t kLarge = std::size_t{1} << 24;
    std::vector<std::uint64_t> small(kSmall);
    for (std::size_t i = 0; i < kSmall; ++i) small[i] = mix64(0xC0FFEE, i);
    std::vector<std::uint32_t> large(kLarge);
    for (std::size_t i = 0; i < kLarge; ++i) {
      large[i] = static_cast<std::uint32_t>(mix64(0xBEEF, i));
    }
    const std::uint64_t start = now_ns();
    std::uint64_t x = 1;
    for (std::uint32_t step = 0; step < (1u << 22); ++step) {
      x = mix64(x, small[x & (kSmall - 1)]);
      small[step & (kSmall - 1)] ^= x;
    }
    std::uint32_t y = static_cast<std::uint32_t>(x);
    for (std::uint32_t step = 0; step < (1u << 20); ++step) {
      y = large[(y ^ step) & (kLarge - 1)];
    }
    *out = ms_since(start);
    calibration_sink = x ^ y;  // keeps both walks observable
  })[0];
}

/// Shortest round-trip decimal form of a double ("all its digits").
inline std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Ordered JSON object of numbers, strings and nested raw JSON.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    return raw(key, num(v));
  }
  JsonObject& add_int(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& add_str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- Span tracer -----------------------------------------------------------
//
// Records one span per public call the benchmark makes: name, start, end,
// the enclosing span and a request id. Spans stay in memory and are
// written once, as Chrome trace JSON, when the run ends. Installed only in
// traced runs; with no tracer a Span costs one pointer load.

struct SpanRecord {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::uint32_t tid;
};

class Tracer {
 public:
  explicit Tracer(std::uint64_t origin_ns) : origin_ns_(origin_ns) {}

  static Tracer*& active() {
    static Tracer* tracer = nullptr;
    return tracer;
  }

  std::uint64_t next_id() {
    const std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }
  void record(const SpanRecord& span) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  /// Chrome trace_event JSON in the layout obs::Profiler emits ("ph":"X",
  /// microseconds from `origin_ns`), plus id/parent/request in args.
  void write(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid
          << ",\"ts\":"
          << num(static_cast<double>(s.start_ns - origin_ns_) / 1000.0)
          << ",\"dur\":"
          << num(static_cast<double>(s.end_ns - s.start_ns) / 1000.0)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  std::uint64_t origin_ns_;
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Per-thread stack of open spans: (id, request) of the innermost one.
struct SpanContext {
  std::uint64_t id = 0;
  std::uint64_t request = 0;
  std::uint32_t tid = 0;
};
inline thread_local SpanContext tl_span;

/// Tags spans opened on this thread (0 = main thread, which is also the
/// obs::Profiler's lane 0).
inline void set_span_thread(std::uint32_t tid) { tl_span.tid = tid; }

/// RAII span around one public call. `request` 0 inherits the parent's.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : tracer_(Tracer::active()) {
    if (tracer_ == nullptr) return;
    saved_ = tl_span;
    record_.name = name;
    record_.id = tracer_->next_id();
    record_.parent = saved_.id;
    record_.request = request != 0 ? request : saved_.request;
    record_.tid = saved_.tid;
    tl_span.id = record_.id;
    tl_span.request = record_.request;
    record_.start_ns = now_ns();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    record_.end_ns = now_ns();
    tracer_->record(record_);
    tl_span = saved_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  SpanRecord record_{};
  SpanContext saved_;
};

}  // namespace perfbench
