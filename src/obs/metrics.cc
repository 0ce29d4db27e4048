#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "common/json_escape.h"

namespace cqa::obs {

namespace {

/// Index of the power-of-two bucket for `value`: 0 for 0, otherwise
/// 1 + floor(log2(value)), clamped to the last bucket.
size_t BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  size_t b = 64 - static_cast<size_t>(__builtin_clzll(value));
  return b < Histogram::kNumBuckets ? b : Histogram::kNumBuckets - 1;
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    double n = static_cast<double>(buckets[b]);
    if (n == 0.0) continue;
    if (cum + n >= target) {
      if (b == 0) return 0.0;  // Bucket 0 holds exactly the zeros.
      // Bucket b spans [2^(b-1), 2^b); the last bucket absorbs overflow,
      // so cap it (and every interpolated value) at the recorded max.
      double lo = static_cast<double>(uint64_t{1} << (b - 1));
      double hi = lo * 2.0;
      double observed_max = static_cast<double>(max);
      if (b + 1 == buckets.size() && observed_max > lo) hi = observed_max;
      double f = (target - cum) / n;
      double v = lo * std::pow(hi / lo, f);
      return v < observed_max ? v : observed_max;
    }
    cum += n;
  }
  return static_cast<double>(max);
}

void Histogram::Observe(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::Instance() {
  static Registry* instance = new Registry();
  return *instance;
}

Counter* Registry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto [it, inserted] = counters_.emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<Counter>();
  return it->second.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto [it, inserted] = gauges_.emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<Gauge>();
  return it->second.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto [it, inserted] = histograms_.emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<Histogram>();
  return it->second.get();
}

uint64_t Registry::CounterValue(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

int64_t Registry::GaugeValue(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count();
  snap.sum = sum();
  snap.max = max();
  snap.buckets.reserve(kNumBuckets);
  for (size_t b = 0; b < kNumBuckets; ++b) snap.buckets.push_back(bucket(b));
  return snap;
}

std::vector<CounterSnapshot> Registry::Counters() const {
  MutexLock lock(mu_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.push_back(CounterSnapshot{name, counter->value()});
  }
  return out;
}

std::vector<GaugeSnapshot> Registry::Gauges() const {
  MutexLock lock(mu_);
  std::vector<GaugeSnapshot> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.push_back(GaugeSnapshot{name, gauge->value()});
  }
  return out;
}

std::vector<HistogramSnapshot> Registry::Histograms() const {
  MutexLock lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot snap = h->snapshot();
    snap.name = name;
    out.push_back(std::move(snap));
  }
  return out;
}

void Registry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string Registry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterSnapshot& c : Counters()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(&out, c.name);
    out += "\":" + std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSnapshot& g : Gauges()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(&out, g.name);
    out += "\":" + std::to_string(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSnapshot& h : Histograms()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(&out, h.name);
    out += "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"max\":" + std::to_string(h.max);
    out += ",\"p50\":";
    AppendDouble(&out, h.Quantile(0.50));
    out += ",\"p95\":";
    AppendDouble(&out, h.Quantile(0.95));
    out += ",\"p99\":";
    AppendDouble(&out, h.Quantile(0.99));
    out += ",\"p999\":";
    AppendDouble(&out, h.Quantile(0.999));
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace cqa::obs
