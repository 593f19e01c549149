#include "obs/recorder.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>

#include "obs/sink.h"

namespace arbmis::obs {

namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};

/// Largest record the ring holds: the head plus truncated text.
constexpr std::size_t kMaxRecordBytes = kMaxRecordHeadBytes + kMaxRecorderText;

/// The ring's form of `e`: the shared record head (obs/sink.h) plus the
/// text truncated to kMaxRecorderText, into `out` (kMaxRecordBytes).
/// Allocation-free, so the signal-handler trailer can use it too.
std::size_t encode_truncated(const Event& e, unsigned char* out) noexcept {
  const std::size_t text_len = std::min(e.text.size(), kMaxRecorderText);
  const std::size_t n = encode_record_head(e, text_len, out);
  if (text_len != 0) std::memcpy(out + n, e.text.data(), text_len);
  return n + text_len;
}

/// The kRecorderDump trailer every dump ends with: `reason` and the ring
/// state in `stats`.
std::size_t encode_trailer(const RecorderStats& stats,
                           std::string_view reason,
                           unsigned char* out) noexcept {
  return encode_truncated(
      make_event<EventKind::kRecorderDump>(
          /*round=*/0, reason, stats.buffered_events, stats.buffered_bytes,
          stats.evicted_events, stats.evicted_bytes),
      out);
}

/// walk_records() consumer appending to `out`.
auto append_to(std::string& out) {
  return [&out](const unsigned char* data, std::size_t n) {
    out.append(reinterpret_cast<const char*>(data), n);
  };
}

/// Async-signal-safe full write; ignores errors beyond giving up (the
/// crash path cannot do better than best effort).
void write_all(int fd, const unsigned char* data, std::size_t n) noexcept {
  std::size_t done = 0;
  while (done < n) {
    const ::ssize_t w = ::write(fd, data + done, n - done);
    if (w <= 0) return;
    done += static_cast<std::size_t>(w);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(RecorderConfig config)
    : config_(std::move(config)),
      buf_(std::max<std::size_t>(config_.max_bytes, 64)) {
  attach_manifest(make_manifest("flight_recorder"));
}

void FlightRecorder::attach_manifest(const Manifest& m) {
  std::string header = binary_header(m);
  const std::lock_guard<std::mutex> lock(mu_);
  header_bytes_ = std::move(header);
}

std::uint32_t FlightRecorder::length_at(std::size_t pos) const noexcept {
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(at(pos + i)) << (8 * i);
  }
  return len;
}

template <typename Out>
void FlightRecorder::walk_records(Out&& out) const {
  // On the signal path size_ may be mid-update: clamp it, and stop at the
  // first length prefix no record() could have written.
  const std::size_t cap = buf_.size();
  const std::size_t size = std::min(size_, cap);
  std::size_t pos = 0;
  while (pos + 4 <= size) {
    const std::uint32_t len = length_at(pos);
    if (len > kMaxRecordBytes || pos + 4 + len > size) break;
    const std::size_t start = (head_ + pos + 4) % cap;
    const std::size_t first = std::min<std::size_t>(len, cap - start);
    out(buf_.data() + start, first);
    if (first < len) out(buf_.data(), len - first);
    pos += 4 + len;
  }
}

void FlightRecorder::evict_for(std::size_t needed) {
  while (buf_.size() - size_ < needed && size_ > 0) {
    const std::uint32_t len = length_at(0);
    head_ = (head_ + 4 + len) % buf_.size();
    size_ -= 4 + len;
    --stats_.buffered_events;
    stats_.buffered_bytes -= len;
    ++stats_.evicted_events;
    stats_.evicted_bytes += len;
  }
}

void FlightRecorder::record(const Event& e) {
  if (event_category(e.kind) == EventCategory::kExec) return;
  unsigned char rec[kMaxRecordBytes];
  const std::size_t len = encode_truncated(e, rec);

  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.recorded_events;
  if (len + 4 > buf_.size()) {
    ++stats_.dropped_oversized;
    return;
  }
  evict_for(len + 4);
  unsigned char prefix[4];
  for (std::size_t i = 0; i < 4; ++i) {
    prefix[i] = static_cast<unsigned char>((len >> (8 * i)) & 0xFFu);
  }
  const auto put = [&](const unsigned char* data, std::size_t n) {
    std::size_t tail = (head_ + size_) % buf_.size();
    for (std::size_t i = 0; i < n; ++i) {
      buf_[tail] = data[i];
      tail = (tail + 1) % buf_.size();
    }
    size_ += n;
  };
  put(prefix, 4);
  put(rec, len);
  ++stats_.buffered_events;
  stats_.buffered_bytes += len;
}

RecorderStats FlightRecorder::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string FlightRecorder::ring_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(stats_.buffered_bytes);
  walk_records(append_to(out));
  return out;
}

std::string FlightRecorder::snapshot(std::string_view reason) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(header_bytes_.size() + size_ + 128);
  out = header_bytes_;
  walk_records(append_to(out));
  unsigned char trailer[kMaxRecordBytes];
  append_to(out)(trailer, encode_trailer(stats_, reason, trailer));
  return out;
}

bool FlightRecorder::dump(const std::string& path, std::string_view reason) {
  const std::string bytes = snapshot(reason);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) return false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.dumps;
  }
  return true;
}

bool FlightRecorder::auto_dump(std::string_view reason) {
  if (config_.dump_path.empty()) return false;
  return dump(config_.dump_path, reason);
}

void FlightRecorder::dump_to_fd(int fd, std::string_view reason)
    const noexcept {
  // NO lock and no allocation: this runs from fatal-signal context, and
  // the ring may be mid-update (walk_records stops at a torn record).
  write_all(fd, reinterpret_cast<const unsigned char*>(header_bytes_.data()),
            header_bytes_.size());
  walk_records([fd](const unsigned char* data, std::size_t n) {
    write_all(fd, data, n);
  });
  unsigned char trailer[kMaxRecordBytes];
  write_all(fd, trailer, encode_trailer(stats_, reason, trailer));
}

void FlightRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  stats_.buffered_events = 0;
  stats_.buffered_bytes = 0;
}

FlightRecorder* recorder() noexcept {
  return g_recorder.load(std::memory_order_acquire);
}

ScopedRecorder::ScopedRecorder(FlightRecorder* r)
    : prev_(g_recorder.exchange(r, std::memory_order_acq_rel)) {}

ScopedRecorder::~ScopedRecorder() {
  g_recorder.store(prev_, std::memory_order_release);
}

bool recorder_auto_dump(std::string_view reason) {
  if (FlightRecorder* r = recorder()) return r->auto_dump(reason);
  return false;
}

}  // namespace arbmis::obs
