// Lightweight span tracer: ScopedSpan records (name, thread, start, dur)
// into a per-thread ring buffer; Drain() collects every ring into a
// Chrome about:tracing JSON document (chrome://tracing or
// https://ui.perfetto.dev both load it).
//
// Disabled by default — a disabled ScopedSpan is two branch-predicted
// loads and no clock read, so leaving spans compiled into the hot path
// costs nothing. Enable() is called by the CLI when --trace-out is
// given. Span names must be string literals (or otherwise outlive the
// drain): rings store the pointer, not a copy.
//
// Rings are bounded: when a thread's ring wraps, its oldest spans are
// overwritten. A trace is a diagnostic window, not an audit log — but
// the clipping is *visible*: every overwritten span increments the
// obs.trace.dropped_spans counter, so /statusz (and any scrape) shows
// how much of the window was lost.

#ifndef SCPRT_OBS_TRACE_H_
#define SCPRT_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace scprt::obs {

struct SpanEvent;

/// Renders spans as a Chrome about:tracing JSON document. Timestamps are
/// microseconds, rebased so the earliest span is t=0. Callers sort by
/// start time first (Drain/SnapshotTail already do).
std::string FormatSpansJson(const std::vector<SpanEvent>& events);

/// One completed span: a named interval on one thread. Chrome nests
/// same-thread intervals by containment, so scoped emission is enough
/// to render the quantum → stage → sub-stage hierarchy.
struct SpanEvent {
  const char* name = nullptr;
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Collects spans from every thread. One process-wide instance
/// (Default()); separate instances exist only for tests.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static Tracer& Default();

  /// Spans each thread's ring keeps (the most recent ones).
  static constexpr std::size_t kCapacityPerThread = std::size_t{1} << 15;

  /// Starts capturing into per-thread rings of kCapacityPerThread spans.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one completed span to the calling thread's ring.
  void Record(const char* name, std::int64_t start_ns, std::int64_t dur_ns);

  /// Moves every captured span out (rings are cleared), sorted by start
  /// time. Concurrent recording is safe; spans recorded during the
  /// drain land in the next one.
  std::vector<SpanEvent> Drain();

  /// Drain() rendered as a Chrome about:tracing JSON document.
  /// Timestamps are microseconds, rebased so the earliest span is t=0.
  std::string DrainJson();

  /// Copies the newest spans *without* clearing the rings (a later
  /// Drain still sees them): at most `max_per_thread` per ring, at most
  /// `max_total` overall, sorted by start time. This is what the flight
  /// recorder folds into its post-mortem bundle on every sampler tick —
  /// peeking must not eat the --trace-out drain.
  std::vector<SpanEvent> SnapshotTail(std::size_t max_per_thread,
                                      std::size_t max_total);

  /// Spans overwritten by ring wrap since process start (all tracer
  /// instances share the one obs.trace.dropped_spans counter).
  std::uint64_t dropped_spans() const;

 private:
  struct Ring {
    std::mutex mu;
    std::vector<SpanEvent> events;  // circular once full
    std::size_t next = 0;
    std::uint32_t tid = 0;
    bool wrapped = false;
  };

  static std::uint64_t NextTracerId();
  Ring* RingForThisThread();

  // Distinguishes tracer instances even when a destroyed tracer's
  // address is reused (the per-thread ring cache keys on this, not on
  // `this`, so it can never serve a ring owned by a dead tracer).
  const std::uint64_t id_ = NextTracerId();
  // Shared drop counter (registered in the default registry at
  // construction so recording never races a lazy init).
  Counter* const dropped_ =
      Registry::Default().GetCounter("obs.trace.dropped_spans");
  std::atomic<bool> enabled_{false};
  std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;  // never freed while enabled
  std::uint32_t next_tid_ = 0;
};

/// RAII span: times its scope and records into the tracer on
/// destruction. When the tracer is disabled at construction the clock
/// is never read. `name` must outlive the tracer drain (use literals).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Tracer& tracer = Tracer::Default())
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        start_ns_(tracer_ != nullptr ? MonotonicNanos() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, start_ns_, MonotonicNanos() - start_ns_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::int64_t start_ns_;
};

}  // namespace scprt::obs

#endif  // SCPRT_OBS_TRACE_H_
