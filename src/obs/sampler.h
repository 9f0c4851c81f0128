// Time-series sampler: a background thread that snapshots the registry
// every T seconds into a bounded in-memory ring of timestamped samples.
//
// The registry's numbers are cumulative-since-start; a production
// question ("are we stalling *now*?") is about a window. The sampler
// turns cumulative into windowed without the registry ever knowing: a
// windowed rate is the counter delta between the newest sample and the
// newest sample at least `window` old, divided by the time between
// them, and a windowed histogram is the bucket-wise difference of the
// same pair (Merge's inverse — buckets only ever grow). When the ring
// is younger than the window the baseline is empty, i.e. the window
// degrades to "since start" — so the very first tick can already trip
// a watchdog rule instead of waiting a full window for history.
//
// One deliberate approximation: a histogram's `max` is cumulative (the
// registry keeps no per-window max), so windowed `max` aggregations
// never forget an old spike. p50/p95/p99/mean are truly windowed.
//
// The tick callback is how the rest of the telemetry tier rides along:
// the watchdog evaluates its rules and the flight recorder re-renders
// its post-mortem buffer on every tick, all on the sampler's thread.

#ifndef SCPRT_OBS_SAMPLER_H_
#define SCPRT_OBS_SAMPLER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/registry.h"

namespace scprt::obs {

/// Sampler wiring: the tick period and the registry to sample.
struct SamplerOptions {
  /// Seconds between samples. Clamped to >= 0.01.
  double period_seconds = 1.0;
  /// Registry to sample; Registry::Default() when null.
  Registry* registry = nullptr;
};

/// Snapshots a registry on a background thread into a bounded ring (see
/// the file comment).
class Sampler {
 public:
  /// Samples kept (oldest evicted): ten minutes at 1 Hz.
  static constexpr std::size_t kRingCapacity = 600;

  /// One ring entry: a full registry snapshot plus when it was taken on
  /// both clocks (monotonic for deltas, wall for display).
  struct Sample {
    std::int64_t mono_ns = 0;
    double unix_seconds = 0;
    RegistrySnapshot snapshot;
  };

  explicit Sampler(SamplerOptions options = {});
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Runs `callback(*this)` after every sample lands in the ring (on
  /// the sampler thread, or the caller's during TickNow). Set before
  /// Start().
  void SetTickCallback(std::function<void(const Sampler&)> callback);

  void Start();
  void Stop();

  /// Takes one sample synchronously (and fires the callback) — the
  /// startup baseline, and the deterministic path for tests.
  void TickNow();

  double period_seconds() const { return period_seconds_; }
  std::uint64_t ticks() const;
  std::size_t size() const;

  /// The newest `max` samples, oldest first.
  std::vector<Sample> Tail(std::size_t max) const;

  /// Counter increase per second over the trailing window. Falls back
  /// to per-uptime-second when the ring has no sample older than the
  /// window; 0 when the ring is empty.
  double CounterRate(std::string_view name, double window_seconds) const;

  /// Bucket-wise newest-minus-baseline histogram over the trailing
  /// window (see file comment for the `max` caveat). Empty-named
  /// all-zero snapshot when the metric is unknown.
  HistogramSnapshot WindowedHistogram(std::string_view name,
                                      double window_seconds) const;

  /// The gauge's value in the newest sample; NaN when absent/empty so
  /// callers can tell "no data" from a real 0.
  double NewestGauge(std::string_view name) const;

  /// The counter's value in the newest sample (0 when absent/empty).
  std::uint64_t NewestCounter(std::string_view name) const;

 private:
  // Newest sample and the newest one at least `window_seconds` older
  // than it; baseline null when the ring is too young. Caller holds mu_.
  const Sample* NewestLocked() const;
  const Sample* BaselineLocked(double window_seconds) const;

  void RunLoop();
  void TakeSampleAndNotify();

  Registry* registry_;
  double period_seconds_;
  std::function<void(const Sampler&)> callback_;

  mutable std::mutex mu_;
  std::deque<Sample> ring_;
  std::uint64_t ticks_ = 0;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace scprt::obs

#endif  // SCPRT_OBS_SAMPLER_H_
