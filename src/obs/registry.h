// Process-wide metrics registry: typed Counter/Gauge/Histogram handles.
//
// Handles are registered by name (dotted lowercase, e.g. "wal.append_ns")
// and live for the life of the registry, so hot paths hold raw pointers
// and never touch the registration mutex again. All mutation is relaxed
// atomics — metrics are statistics, not synchronization — which keeps the
// instrumented data path bit-identical to the uninstrumented one: nothing
// here orders, delays or branches on the data being processed.
//
// Histograms are fixed-size log-bucket arrays (bucket b counts values
// whose bit width is b), so Record() is allocation-free, snapshots are
// O(64), and two histograms merge by bucket-wise addition — associative
// and commutative, like every other reduction in this codebase.
//
// SCPRT_OBS_OFF=1 in the environment (or SetEnabled(false)) turns the
// *optional* instrumentation off: ScopedHistogramTimer stops reading the
// clock. Counters written through explicit Add() calls (the ingest
// facade) are always live — they are the product's own statistics, not
// overhead-bearing extras. bench/bench_obs.cc gates the enabled-vs-off
// throughput difference below 2%.

#ifndef SCPRT_OBS_REGISTRY_H_
#define SCPRT_OBS_REGISTRY_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace scprt::obs {

/// Monotonic nanoseconds — the one clock every span and stage timer uses.
inline std::int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Unix seconds at process start: captured during static initialisation
/// of any binary that links the registry, before main. Captured once;
/// every later call returns the same value, so windowed rates derived
/// from (counter, uptime) pairs in different scrapes share one anchor.
double ProcessStartUnixSeconds();

/// Seconds since ProcessStartUnixSeconds' anchor, on the monotonic
/// clock (wall-clock steps cannot make uptime jump).
double ProcessUptimeSeconds();

/// Whether optional instrumentation (stage timers, span clocks) is live.
/// Initialized from the environment: SCPRT_OBS_OFF=1 disables it.
bool Enabled();

/// Overrides the environment (benchmarks measuring their own overhead).
void SetEnabled(bool enabled);

/// Monotonically increasing event count. Store()/Reset semantics exist
/// for per-run facades (ingest) that re-baseline between runs.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  void Store(std::uint64_t v) {
    value_.store(v, std::memory_order_relaxed);
  }
  /// Raises the value to at least `v` (watermark counters).
  void MaxWith(std::uint64_t v) {
    std::uint64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, health state).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Bucket count of the log-bucket histograms. Bucket 0 holds the value 0;
/// bucket b >= 1 holds values in [2^(b-1), 2^b - 1] (the values of bit
/// width b); the last bucket absorbs everything wider.
inline constexpr std::size_t kHistogramBuckets = 64;

/// The bucket a value lands in.
inline std::size_t HistogramBucketIndex(std::uint64_t value) {
  const std::size_t width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

/// Smallest value bucket `b` can hold.
inline std::uint64_t HistogramBucketLowerBound(std::size_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

/// Largest value bucket `b` can hold.
inline std::uint64_t HistogramBucketUpperBound(std::size_t b) {
  if (b == 0) return 0;
  if (b >= kHistogramBuckets - 1) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return (std::uint64_t{1} << b) - 1;
}

/// Point-in-time copy of one histogram; mergeable and percentile-derivable.
struct HistogramSnapshot {
  std::string name;
  std::string unit;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
  /// Quantile estimate (q in [0, 1]): linear interpolation inside the
  /// bucket the rank falls in, clamped to the observed maximum. 0 when
  /// empty.
  double Percentile(double q) const;
  /// Bucket-wise addition (associative, commutative).
  void Merge(const HistogramSnapshot& other);
};

/// Fixed-size log-bucket latency/size histogram of relaxed atomics.
/// Record() is lock-free and allocation-free; snapshots may be taken
/// concurrently with writers from any thread.
class Histogram {
 public:
  void Record(std::uint64_t value) {
    buckets_[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
  HistogramSnapshot Snapshot() const;
  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

  std::string name_;
  std::string unit_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

/// Point-in-time copy of every metric in a registry, with renderers for
/// the two monitoring formats.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
  // SnapshotAll() appends the process clock as two synthetic gauges
  // ("process.start_unix", "process.uptime_seconds"), so every export —
  // Prometheus scrape or flat JSON — carries the anchor a dashboard
  // needs to turn cumulative counters into windowed rates.

  /// Prometheus text exposition (names sanitized: dots become
  /// underscores, everything prefixed scprt_).
  std::string FormatPrometheus() const;
  /// Flat JSON object: counters and gauges by sanitized name, histograms
  /// expanded to name_count/_sum/_max/_p50/_p95/_p99 keys.
  std::string FormatJson() const;

  /// Lookup helpers (nullptr / 0 when absent) for dashboards and tests.
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  std::uint64_t CounterValue(std::string_view name) const;
};

/// The process-wide registry. Registration is mutex-guarded and
/// idempotent by name; returned handles are stable for the registry's
/// lifetime. Default() never destructs, so worker threads may record
/// through cached handles during static teardown.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide instance (what every subsystem instruments into).
  static Registry& Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name, std::string_view unit = "ns");

  /// Copies every metric; callable concurrently with writers.
  RegistrySnapshot SnapshotAll() const;

 private:
  mutable std::mutex mu_;
  // unique_ptr storage: handle addresses stay stable as more register.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, Counter*, std::less<>> counter_index_;
  std::map<std::string, Gauge*, std::less<>> gauge_index_;
  std::map<std::string, Histogram*, std::less<>> histogram_index_;
};

/// Records the scope's wall time into a histogram — but only when
/// observability is enabled; otherwise neither clock read happens. The
/// standard way to time a pipeline stage.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* histogram)
      : histogram_(Enabled() ? histogram : nullptr),
        start_(histogram_ != nullptr ? MonotonicNanos() : 0) {}
  ~ScopedHistogramTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(
          static_cast<std::uint64_t>(MonotonicNanos() - start_));
    }
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* histogram_;
  std::int64_t start_;
};

}  // namespace scprt::obs

#endif  // SCPRT_OBS_REGISTRY_H_
