#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace scprt::obs {

Tracer& Tracer::Default() {
  // Leaked on purpose, same as Registry::Default(): threads may record
  // through cached rings during static teardown.
  static Tracer* const instance = new Tracer();
  return *instance;
}

void Tracer::Enable() { enabled_.store(true, std::memory_order_relaxed); }

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

std::uint64_t Tracer::NextTracerId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Ring* Tracer::RingForThisThread() {
  // Cache keyed on the tracer's unique id (not its address): test
  // tracers and the default tracer each get this thread's own ring, and
  // a new tracer stack-allocated where a destroyed one lived can never
  // hit a stale cache entry pointing into freed rings.
  thread_local std::uint64_t cached_owner_id = 0;
  thread_local Ring* cached_ring = nullptr;
  if (cached_owner_id == id_) return cached_ring;
  std::lock_guard<std::mutex> lock(rings_mu_);
  auto ring = std::make_unique<Ring>();
  ring->tid = next_tid_++;
  Ring* raw = ring.get();
  rings_.push_back(std::move(ring));
  cached_owner_id = id_;
  cached_ring = raw;
  return raw;
}

void Tracer::Record(const char* name, std::int64_t start_ns,
                    std::int64_t dur_ns) {
  Ring* ring = RingForThisThread();
  SpanEvent event{name, ring->tid, start_ns, dur_ns};
  std::lock_guard<std::mutex> lock(ring->mu);
  if (ring->events.size() < kCapacityPerThread) {
    ring->events.push_back(event);
    ring->next = ring->events.size() % kCapacityPerThread;
    if (ring->next == 0) ring->wrapped = true;
  } else {
    // The ring clips its oldest span — count it, don't hide it.
    dropped_->Increment();
    ring->events[ring->next] = event;
    ring->next = (ring->next + 1) % kCapacityPerThread;
    ring->wrapped = true;
  }
}

std::uint64_t Tracer::dropped_spans() const { return dropped_->Value(); }

std::vector<SpanEvent> Tracer::SnapshotTail(std::size_t max_per_thread,
                                            std::size_t max_total) {
  std::vector<SpanEvent> out;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      // Oldest-to-newest order of a (possibly wrapped) ring.
      std::vector<SpanEvent> ordered;
      ordered.reserve(ring->events.size());
      if (ring->wrapped) {
        ordered.insert(ordered.end(), ring->events.begin() + ring->next,
                       ring->events.end());
        ordered.insert(ordered.end(), ring->events.begin(),
                       ring->events.begin() + ring->next);
      } else {
        ordered.insert(ordered.end(), ring->events.begin(),
                       ring->events.end());
      }
      const std::size_t keep = std::min(max_per_thread, ordered.size());
      out.insert(out.end(), ordered.end() - keep, ordered.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  if (out.size() > max_total) {
    out.erase(out.begin(), out.end() - max_total);
  }
  return out;
}

std::vector<SpanEvent> Tracer::Drain() {
  std::vector<SpanEvent> out;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    if (ring->wrapped) {
      out.insert(out.end(), ring->events.begin() + ring->next,
                 ring->events.end());
      out.insert(out.end(), ring->events.begin(),
                 ring->events.begin() + ring->next);
    } else {
      out.insert(out.end(), ring->events.begin(), ring->events.end());
    }
    ring->events.clear();
    ring->next = 0;
    ring->wrapped = false;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              // Ties: longer (outer) span first so viewers nest cleanly.
              return a.dur_ns > b.dur_ns;
            });
  return out;
}

std::string FormatSpansJson(const std::vector<SpanEvent>& events) {
  std::int64_t base_ns = 0;
  if (!events.empty()) base_ns = events.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const SpanEvent& e : events) {
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f}",
        first ? "" : ",", e.name != nullptr ? e.name : "span", e.tid,
        static_cast<double>(e.start_ns - base_ns) / 1000.0,
        static_cast<double>(e.dur_ns) / 1000.0);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

std::string Tracer::DrainJson() { return FormatSpansJson(Drain()); }

}  // namespace scprt::obs
