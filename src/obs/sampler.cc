#include "obs/sampler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace scprt::obs {

Sampler::Sampler(SamplerOptions options)
    : registry_(options.registry != nullptr ? options.registry
                                            : &Registry::Default()),
      period_seconds_(std::max(options.period_seconds, 0.01)) {}

Sampler::~Sampler() { Stop(); }

void Sampler::SetTickCallback(std::function<void(const Sampler&)> callback) {
  callback_ = std::move(callback);
}

void Sampler::Start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { RunLoop(); });
}

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Sampler::TickNow() { TakeSampleAndNotify(); }

void Sampler::RunLoop() {
  const auto period = std::chrono::duration<double>(period_seconds_);
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(lock, period, [this] { return stop_requested_; })) {
      return;
    }
    lock.unlock();
    TakeSampleAndNotify();
    lock.lock();
  }
}

void Sampler::TakeSampleAndNotify() {
  Sample sample;
  sample.mono_ns = MonotonicNanos();
  sample.unix_seconds =
      ProcessStartUnixSeconds() + ProcessUptimeSeconds();
  sample.snapshot = registry_->SnapshotAll();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(std::move(sample));
    while (ring_.size() > kRingCapacity) ring_.pop_front();
    ++ticks_;
  }
  if (callback_) callback_(*this);
}

std::uint64_t Sampler::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

std::size_t Sampler::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::vector<Sampler::Sample> Sampler::Tail(std::size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = std::min(max, ring_.size());
  return std::vector<Sample>(ring_.end() - static_cast<std::ptrdiff_t>(n),
                             ring_.end());
}

const Sampler::Sample* Sampler::NewestLocked() const {
  return ring_.empty() ? nullptr : &ring_.back();
}

const Sampler::Sample* Sampler::BaselineLocked(double window_seconds) const {
  if (ring_.empty()) return nullptr;
  const std::int64_t cutoff_ns =
      ring_.back().mono_ns -
      static_cast<std::int64_t>(window_seconds * 1e9);
  const Sample* best = nullptr;
  for (const Sample& s : ring_) {
    if (s.mono_ns <= cutoff_ns) best = &s;
  }
  return best;
}

double Sampler::CounterRate(std::string_view name,
                            double window_seconds) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Sample* newest = NewestLocked();
  if (newest == nullptr) return 0.0;
  const Sample* base = BaselineLocked(window_seconds);
  const std::uint64_t now = newest->snapshot.CounterValue(name);
  const std::uint64_t then =
      base != nullptr ? base->snapshot.CounterValue(name) : 0;
  const double dt =
      base != nullptr
          ? static_cast<double>(newest->mono_ns - base->mono_ns) / 1e9
          : newest->snapshot.GaugeValue("process.uptime_seconds");
  if (dt <= 0.0 || now < then) return 0.0;
  return static_cast<double>(now - then) / dt;
}

HistogramSnapshot Sampler::WindowedHistogram(std::string_view name,
                                             double window_seconds) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Sample* newest = NewestLocked();
  if (newest == nullptr) return HistogramSnapshot{};
  const HistogramSnapshot* now = newest->snapshot.FindHistogram(name);
  if (now == nullptr) return HistogramSnapshot{};
  HistogramSnapshot delta = *now;
  const Sample* base = BaselineLocked(window_seconds);
  const HistogramSnapshot* then =
      base != nullptr ? base->snapshot.FindHistogram(name) : nullptr;
  if (then != nullptr) {
    // Counters only grow, so saturating subtraction guards nothing but
    // a facade Reset() mid-window — in which case "since reset" is the
    // honest window anyway.
    auto sub = [](std::uint64_t a, std::uint64_t b) {
      return a >= b ? a - b : std::uint64_t{0};
    };
    delta.count = sub(delta.count, then->count);
    delta.sum = sub(delta.sum, then->sum);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      delta.buckets[b] = sub(delta.buckets[b], then->buckets[b]);
    }
    // delta.max stays cumulative (header caveat).
  }
  return delta;
}

double Sampler::NewestGauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Sample* newest = NewestLocked();
  if (newest == nullptr) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  for (const auto& [n, v] : newest->snapshot.gauges) {
    if (n == name) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t Sampler::NewestCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Sample* newest = NewestLocked();
  return newest != nullptr ? newest->snapshot.CounterValue(name) : 0;
}

}  // namespace scprt::obs
