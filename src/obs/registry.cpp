#include "obs/registry.h"

#include <atomic>

#include "obs/events.h"

namespace arbmis::obs {

namespace {

std::atomic<Registry*> g_registry{nullptr};

void append_key(std::string& out, std::string_view key, bool& first) {
  if (!first) out += ',';
  first = false;
  out += '"';
  append_json_escaped(out, key);
  out += "\":";
}

template <typename T>
void append_u64_array(std::string& out, const T& values) {
  out += '[';
  bool first = true;
  for (const auto v : values) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(v);
  }
  out += ']';
}

}  // namespace

void Registry::add(std::string_view name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), 0u).first;
  }
  it->second += delta;
}

void Registry::set(std::string_view name, std::int64_t value) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::int64_t{0}).first;
  }
  it->second = value;
}

util::Log2Histogram& Registry::histogram(std::string_view name) {
  auto it = log2_histograms_.find(name);
  if (it == log2_histograms_.end()) {
    it = log2_histograms_.emplace(std::string(name), util::Log2Histogram{})
             .first;
  }
  return it->second;
}

void Registry::observe(std::string_view name, std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mu_);
  histogram(name).add(value);
}

void Registry::merge(std::string_view name,
                     const util::Log2Histogram& staged) {
  const std::lock_guard<std::mutex> lock(mu_);
  histogram(name).merge(staged);
}

void Registry::track_round_series(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  series_.try_emplace(std::string(name));
}

void Registry::snapshot_round(std::uint32_t round) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (round % round_sample_ != 0) return;
  sampled_rounds_.push_back(round);
  for (auto& [name, series] : series_) {
    std::uint64_t current = 0;
    if (const auto it = counters_.find(name); it != counters_.end()) {
      current = it->second;
    }
    series.deltas.push_back(current - series.last);
    series.last = current;
  }
}

std::uint64_t Registry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0u;
}

std::int64_t Registry::gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0;
}

std::string Registry::to_json(const Manifest* manifest) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"schema\":\"";
  out += kMetricsSchemaVersion;
  out += "\",\"manifest\":";
  out += manifest != nullptr ? to_json_object(*manifest) : "null";

  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    append_key(out, name, first);
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    append_key(out, name, first);
    out += std::to_string(value);
  }

  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : log2_histograms_) {
    append_key(out, name, first);
    out += "{\"type\":\"log2\",\"zero\":" + std::to_string(h.zero_count());
    out += ",\"buckets\":";
    std::vector<std::uint64_t> buckets(h.bucket_count());
    for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] = h.bucket(b);
    append_u64_array(out, buckets);
    out += ",\"total\":" + std::to_string(h.total());
    out += ",\"max_value\":" + std::to_string(h.max_value()) + "}";
  }

  out += "},\"rounds\":{\"sample\":" + std::to_string(round_sample_);
  out += ",\"sampled\":";
  append_u64_array(out, sampled_rounds_);
  out += ",\"series\":{";
  first = true;
  for (const auto& [name, series] : series_) {
    append_key(out, name, first);
    append_u64_array(out, series.deltas);
  }
  out += "}}}";
  return out;
}

Registry* registry() noexcept {
  return g_registry.load(std::memory_order_acquire);
}

ScopedRegistry::ScopedRegistry(Registry* r)
    : prev_(g_registry.exchange(r, std::memory_order_acq_rel)) {}

ScopedRegistry::~ScopedRegistry() {
  g_registry.store(prev_, std::memory_order_release);
}

}  // namespace arbmis::obs
