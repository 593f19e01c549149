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
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < h.bucket_count(); ++b) {
      if (b > 0) out += ',';
      out += std::to_string(h.bucket(b));
    }
    out += "],\"total\":" + std::to_string(h.total());
    out += ",\"max_value\":" + std::to_string(h.max_value()) + "}";
  }

  out += "}}";
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
