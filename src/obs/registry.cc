#include "obs/registry.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scprt::obs {
namespace {

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{[] {
    const char* off = std::getenv("SCPRT_OBS_OFF");
    return !(off != nullptr && off[0] != '\0' && std::strcmp(off, "0") != 0);
  }()};
  return flag;
}

// Dots become underscores; anything else non-alphanumeric too. Prefixed
// so scprt metrics are self-identifying in a shared scrape.
std::string SanitizedName(const std::string& name) {
  std::string out = "scprt_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

// The shortest text that reads back as exactly `v`: six significant
// digits would round a Unix-seconds gauge such as process.start_unix to
// hours.
void AppendDouble(std::string& out, double v) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

namespace {

// One anchor pair, captured together: the wall clock names the instant,
// the monotonic clock measures from it.
struct ProcessClockAnchor {
  double start_unix;
  std::int64_t start_mono_ns;
};

const ProcessClockAnchor& ClockAnchor() {
  static const ProcessClockAnchor anchor = [] {
    ProcessClockAnchor a;
    a.start_mono_ns = MonotonicNanos();
    a.start_unix =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    return a;
  }();
  return anchor;
}

// Takes the anchor during static initialisation, so uptime counts from
// process start rather than from the first metrics read.
[[maybe_unused]] const ProcessClockAnchor& kStartupAnchor = ClockAnchor();

}  // namespace

double ProcessStartUnixSeconds() { return ClockAnchor().start_unix; }

double ProcessUptimeSeconds() {
  return static_cast<double>(MonotonicNanos() -
                             ClockAnchor().start_mono_ns) /
         1e9;
}

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; cumulative walk finds its bucket.
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const std::uint64_t next = cumulative + buckets[b];
    if (static_cast<double>(next) >= rank) {
      const double lo = static_cast<double>(HistogramBucketLowerBound(b));
      // The top bucket is unbounded; the observed max is the honest cap.
      const double hi =
          b >= kHistogramBuckets - 1
              ? static_cast<double>(max)
              : static_cast<double>(HistogramBucketUpperBound(b)) + 1.0;
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[b]);
      const double v = lo + within * (hi - lo);
      return std::min(v, static_cast<double>(max));
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.unit = unit_;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return snap;
}

Registry& Registry::Default() {
  // Leaked on purpose: worker threads may still record through cached
  // handles during static destruction.
  static Registry* const instance = new Registry();
  return *instance;
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return it->second;
  Counter* c = counters_.emplace_back(
      std::unique_ptr<Counter>(new Counter(std::string(name)))).get();
  counter_index_.emplace(c->name(), c);
  return c;
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return it->second;
  Gauge* g = gauges_.emplace_back(
      std::unique_ptr<Gauge>(new Gauge(std::string(name)))).get();
  gauge_index_.emplace(g->name(), g);
  return g;
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::string_view unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return it->second;
  Histogram* h = histograms_.emplace_back(std::unique_ptr<Histogram>(
      new Histogram(std::string(name), std::string(unit)))).get();
  histogram_index_.emplace(h->name(), h);
  return h;
}

RegistrySnapshot Registry::SnapshotAll() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counter_index_.size());
  for (const auto& [name, counter] : counter_index_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauge_index_.size() + 2);
  for (const auto& [name, gauge] : gauge_index_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  // The process clock rides along so windowed rates are derivable from a
  // single scrape (uptime delta between two scrapes = exact denominator).
  snap.gauges.emplace_back("process.start_unix", ProcessStartUnixSeconds());
  snap.gauges.emplace_back("process.uptime_seconds",
                           ProcessUptimeSeconds());
  snap.histograms.reserve(histogram_index_.size());
  for (const auto& [name, histogram] : histogram_index_) {
    snap.histograms.push_back(histogram->Snapshot());
  }
  return snap;
}

std::string RegistrySnapshot::FormatPrometheus() const {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : counters) {
    const std::string s = SanitizedName(name);
    out += "# TYPE " + s + " counter\n" + s + " ";
    AppendU64(out, value);
    out += '\n';
  }
  for (const auto& [name, value] : gauges) {
    const std::string s = SanitizedName(name);
    out += "# TYPE " + s + " gauge\n" + s + " ";
    AppendDouble(out, value);
    out += '\n';
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string s = SanitizedName(h.name);
    out += "# TYPE " + s + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      cumulative += h.buckets[b];
      if (h.buckets[b] == 0 && b + 1 < kHistogramBuckets) continue;
      out += s + "_bucket{le=\"";
      if (b >= kHistogramBuckets - 1) {
        out += "+Inf";
      } else {
        AppendU64(out, HistogramBucketUpperBound(b));
      }
      out += "\"} ";
      AppendU64(out, cumulative);
      out += '\n';
    }
    out += s + "_sum ";
    AppendU64(out, h.sum);
    out += '\n';
    out += s + "_count ";
    AppendU64(out, h.count);
    out += '\n';
  }
  return out;
}

std::string RegistrySnapshot::FormatJson() const {
  std::string out = "{";
  bool first = true;
  auto key = [&](const std::string& name, const char* suffix) {
    if (!first) out += ',';
    first = false;
    out += '"';
    for (char c : name) out += (c == '.' ? '_' : c);
    out += suffix;
    out += "\":";
  };
  for (const auto& [name, value] : counters) {
    key(name, "");
    AppendU64(out, value);
  }
  for (const auto& [name, value] : gauges) {
    key(name, "");
    AppendDouble(out, value);
  }
  for (const HistogramSnapshot& h : histograms) {
    key(h.name, "_count");
    AppendU64(out, h.count);
    key(h.name, "_sum");
    AppendU64(out, h.sum);
    key(h.name, "_max");
    AppendU64(out, h.max);
    key(h.name, "_p50");
    AppendDouble(out, h.Percentile(0.50));
    key(h.name, "_p95");
    AppendDouble(out, h.Percentile(0.95));
    key(h.name, "_p99");
    AppendDouble(out, h.Percentile(0.99));
  }
  out += "}";
  return out;
}

const HistogramSnapshot* RegistrySnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double RegistrySnapshot::GaugeValue(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

std::uint64_t RegistrySnapshot::CounterValue(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace scprt::obs
