// Tests for the observability layer (src/obs/): log-bucket histogram
// bucketing/percentiles/merge, registry handle identity and snapshot
// formats, the span tracer's ring buffers and Chrome JSON, the ingest
// facade's JSON schema round-trip, and a multi-writer hammer that the CI
// TSan job runs to prove SnapshotAll() is safe against live writers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scprt {
namespace {

// --- histogram bucketing ---

TEST(HistogramBuckets, BoundariesMatchBitWidth) {
  // Bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b - 1].
  EXPECT_EQ(obs::HistogramBucketIndex(0), 0u);
  EXPECT_EQ(obs::HistogramBucketIndex(1), 1u);
  EXPECT_EQ(obs::HistogramBucketIndex(2), 2u);
  EXPECT_EQ(obs::HistogramBucketIndex(3), 2u);
  EXPECT_EQ(obs::HistogramBucketIndex(4), 3u);
  EXPECT_EQ(obs::HistogramBucketIndex(1023), 10u);
  EXPECT_EQ(obs::HistogramBucketIndex(1024), 11u);
  for (std::size_t b = 0; b < obs::kHistogramBuckets - 1; ++b) {
    // Every bucket's own bounds land back in that bucket.
    EXPECT_EQ(obs::HistogramBucketIndex(obs::HistogramBucketLowerBound(b)),
              b);
    EXPECT_EQ(obs::HistogramBucketIndex(obs::HistogramBucketUpperBound(b)),
              b);
  }
  // The top bucket absorbs everything up to the maximum value.
  EXPECT_EQ(obs::HistogramBucketIndex(~std::uint64_t{0}),
            obs::kHistogramBuckets - 1);
}

TEST(HistogramBuckets, RecordCountsSumsAndMax) {
  obs::Registry registry;
  obs::Histogram* h = registry.GetHistogram("t.h");
  h->Record(0);
  h->Record(7);
  h->Record(100);
  const obs::HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 107u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_EQ(snap.buckets[0], 1u);  // 0
  EXPECT_EQ(snap.buckets[3], 1u);  // 7 in [4, 7]
  EXPECT_EQ(snap.buckets[7], 1u);  // 100 in [64, 127]
  EXPECT_DOUBLE_EQ(snap.Mean(), 107.0 / 3.0);
}

// --- percentiles ---

TEST(HistogramPercentile, EmptyIsZero) {
  obs::HistogramSnapshot snap;
  EXPECT_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_EQ(snap.Percentile(0.99), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(HistogramPercentile, SingleSampleClampsToMax) {
  obs::Registry registry;
  obs::Histogram* h = registry.GetHistogram("t.single");
  h->Record(1000);
  const obs::HistogramSnapshot snap = h->Snapshot();
  // One sample: every quantile is inside its bucket [512, 1023], and never
  // beyond the observed max.
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double v = snap.Percentile(q);
    EXPECT_GE(v, 512.0) << "q=" << q;
    EXPECT_LE(v, 1000.0) << "q=" << q;
  }
}

TEST(HistogramPercentile, MonotoneInQAndOrdersBuckets) {
  obs::Registry registry;
  obs::Histogram* h = registry.GetHistogram("t.mono");
  // 90 small values, 10 large: p50 must sit in the small bucket, p99 in
  // the large one.
  for (int i = 0; i < 90; ++i) h->Record(10);
  for (int i = 0; i < 10; ++i) h->Record(100000);
  const obs::HistogramSnapshot snap = h->Snapshot();
  double prev = -1.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double v = snap.Percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LT(snap.Percentile(0.5), 16.0);       // inside [8, 15]
  EXPECT_GT(snap.Percentile(0.99), 65536.0);   // inside [65536, 131071]
}

// --- merge ---

TEST(HistogramMerge, AssociativeAndCommutative) {
  obs::Registry registry;
  obs::Histogram* a = registry.GetHistogram("t.a");
  obs::Histogram* b = registry.GetHistogram("t.b");
  obs::Histogram* c = registry.GetHistogram("t.c");
  for (const std::uint64_t v : {1u, 5u, 9u}) a->Record(v);
  for (const std::uint64_t v : {100u, 200u}) b->Record(v);
  for (const std::uint64_t v : {0u, 7u, 3000u, 9000u}) c->Record(v);

  // (a + b) + c
  obs::HistogramSnapshot left = a->Snapshot();
  left.Merge(b->Snapshot());
  left.Merge(c->Snapshot());
  // a + (c + b)
  obs::HistogramSnapshot inner = c->Snapshot();
  inner.Merge(b->Snapshot());
  obs::HistogramSnapshot right = a->Snapshot();
  right.Merge(inner);

  EXPECT_EQ(left.count, 9u);
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.sum, right.sum);
  EXPECT_EQ(left.max, right.max);
  EXPECT_EQ(left.buckets, right.buckets);
  EXPECT_EQ(left.max, 9000u);
}

TEST(HistogramMerge, MergingEmptyIsIdentity) {
  obs::Registry registry;
  obs::Histogram* a = registry.GetHistogram("t.id");
  a->Record(42);
  obs::HistogramSnapshot snap = a->Snapshot();
  const obs::HistogramSnapshot before = snap;
  snap.Merge(obs::HistogramSnapshot{});
  EXPECT_EQ(snap.count, before.count);
  EXPECT_EQ(snap.sum, before.sum);
  EXPECT_EQ(snap.buckets, before.buckets);
}

// --- registry ---

TEST(Registry, HandlesAreIdempotentByName) {
  obs::Registry registry;
  obs::Counter* c1 = registry.GetCounter("x.count");
  obs::Counter* c2 = registry.GetCounter("x.count");
  EXPECT_EQ(c1, c2);
  obs::Gauge* g1 = registry.GetGauge("x.gauge");
  EXPECT_EQ(g1, registry.GetGauge("x.gauge"));
  obs::Histogram* h1 = registry.GetHistogram("x.hist");
  EXPECT_EQ(h1, registry.GetHistogram("x.hist"));
  // Different kinds under different names coexist.
  EXPECT_NE(static_cast<void*>(c1), static_cast<void*>(g1));
}

TEST(Registry, SnapshotAllCarriesEveryMetric) {
  obs::Registry registry;
  registry.GetCounter("s.count")->Add(7);
  registry.GetGauge("s.gauge")->Set(2.5);
  registry.GetHistogram("s.hist")->Record(100);
  const obs::RegistrySnapshot snap = registry.SnapshotAll();
  EXPECT_EQ(snap.CounterValue("s.count"), 7u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("s.gauge"), 2.5);
  ASSERT_NE(snap.FindHistogram("s.hist"), nullptr);
  EXPECT_EQ(snap.FindHistogram("s.hist")->count, 1u);
  EXPECT_EQ(snap.FindHistogram("missing"), nullptr);
  EXPECT_EQ(snap.CounterValue("missing"), 0u);
}

TEST(Registry, PrometheusFormatIsSaneAndCumulative) {
  obs::Registry registry;
  registry.GetCounter("p.events")->Add(3);
  registry.GetGauge("p.depth")->Set(1.5);
  obs::Histogram* h = registry.GetHistogram("p.lat");
  h->Record(1);
  h->Record(100);
  const std::string text = registry.SnapshotAll().FormatPrometheus();
  EXPECT_NE(text.find("# TYPE scprt_p_events counter"), std::string::npos);
  EXPECT_NE(text.find("scprt_p_events 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE scprt_p_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE scprt_p_lat histogram"), std::string::npos);
  // The +Inf bucket always closes the series at the total count.
  EXPECT_NE(text.find("scprt_p_lat_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("scprt_p_lat_count 2"), std::string::npos);
  EXPECT_NE(text.find("scprt_p_lat_sum 101"), std::string::npos);
}

TEST(Registry, JsonFormatIsFlatWithPercentileKeys) {
  obs::Registry registry;
  registry.GetCounter("j.events")->Add(5);
  registry.GetHistogram("j.lat")->Record(64);
  const std::string json = registry.SnapshotAll().FormatJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"j_events\":5"), std::string::npos);
  EXPECT_NE(json.find("\"j_lat_count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"j_lat_max\":64"), std::string::npos);
  EXPECT_NE(json.find("\"j_lat_p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"j_lat_p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"j_lat_p99\":"), std::string::npos);
}

// --- concurrency (the TSan job runs this) ---

TEST(RegistryConcurrency, SnapshotAllRacesWritersCleanly) {
  obs::Registry registry;
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 20'000;
  obs::Histogram* hist = registry.GetHistogram("c.lat");
  obs::Counter* count = registry.GetCounter("c.events");
  obs::Gauge* gauge = registry.GetGauge("c.depth");

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    // Hammer SnapshotAll (and late registration) against live writers;
    // TSan proves the relaxed-atomic copy is race-free.
    std::uint64_t last_count = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::RegistrySnapshot snap = registry.SnapshotAll();
      const obs::HistogramSnapshot* h = snap.FindHistogram("c.lat");
      ASSERT_NE(h, nullptr);
      EXPECT_GE(h->count, last_count);  // counts only grow
      last_count = h->count;
      registry.GetCounter("c.late");  // registration under load
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        hist->Record(i % 4096);
        count->Increment();
        gauge->Set(static_cast<double>(w));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  const obs::HistogramSnapshot final = hist->Snapshot();
  EXPECT_EQ(final.count, kWriters * kPerWriter);
  EXPECT_EQ(count->Value(), kWriters * kPerWriter);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : final.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, final.count);
}

// --- tracer ---

TEST(Tracer, ScopedSpansNestAndDrainSorted) {
  obs::Tracer tracer;
  tracer.Enable();
  {
    obs::ScopedSpan outer("outer", tracer);
    obs::ScopedSpan inner("inner", tracer);
  }
  std::thread other([&] { obs::ScopedSpan span("worker", tracer); });
  other.join();

  const std::vector<obs::SpanEvent> events = tracer.Drain();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: outer opened before inner.
  std::map<std::string, obs::SpanEvent> by_name;
  for (const obs::SpanEvent& e : events) by_name[e.name] = e;
  ASSERT_EQ(by_name.size(), 3u);
  const obs::SpanEvent& outer = by_name["outer"];
  const obs::SpanEvent& inner = by_name["inner"];
  const obs::SpanEvent& worker = by_name["worker"];
  // Same thread, and the inner interval is contained in the outer one —
  // the property Chrome's viewer uses to nest them.
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_NE(outer.tid, worker.tid);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.start_ns + outer.dur_ns, inner.start_ns + inner.dur_ns);
  // Drained: a second drain is empty.
  EXPECT_TRUE(tracer.Drain().empty());
}

TEST(Tracer, DisabledSpansRecordNothing) {
  obs::Tracer tracer;  // never enabled
  { obs::ScopedSpan span("ghost", tracer); }
  EXPECT_TRUE(tracer.Drain().empty());
}

TEST(Tracer, DrainJsonIsChromeTraceShaped) {
  obs::Tracer tracer;
  tracer.Enable();
  { obs::ScopedSpan span("quantum", tracer); }
  const std::string json = tracer.DrainJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"quantum\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(Tracer, RingDropsOldestWhenFull) {
  obs::Tracer tracer;
  const std::uint64_t dropped_before = tracer.dropped_spans();
  tracer.Enable();
  constexpr std::size_t kCapacity = obs::Tracer::kCapacityPerThread;
  for (std::size_t i = 0; i < kCapacity + 24; ++i) {
    obs::ScopedSpan span("s", tracer);
  }
  const std::vector<obs::SpanEvent> events = tracer.Drain();
  EXPECT_EQ(events.size(), kCapacity);  // bounded, newest kept
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
  // Clipping is visible: the 24 overwritten spans were counted.
  EXPECT_EQ(tracer.dropped_spans() - dropped_before, 24u);
}

TEST(Tracer, SnapshotTailPeeksWithoutConsuming) {
  obs::Tracer tracer;
  tracer.Enable();
  for (int i = 0; i < 10; ++i) {
    obs::ScopedSpan span("peeked", tracer);
  }
  const std::vector<obs::SpanEvent> tail = tracer.SnapshotTail(4, 100);
  EXPECT_EQ(tail.size(), 4u);  // per-thread cap applies
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_GE(tail[i].start_ns, tail[i - 1].start_ns);
  }
  // The peek did not eat the drain.
  EXPECT_EQ(tracer.Drain().size(), 10u);
}

// --- ingest facade: queue-depth and recovery gauges, derived rates ---

TEST(IngestMetricsFacade, ObserveQueueDepthTracksPeakAndCurrent) {
  obs::Registry registry;
  ingest::IngestMetrics metrics(&registry);
  metrics.Reset();
  metrics.ObserveQueueDepth(10);
  metrics.ObserveQueueDepth(900);  // spike
  metrics.ObserveQueueDepth(3);    // drained again
  const ingest::IngestSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.peak_queue_depth, 900u);  // watermark keeps the spike
  EXPECT_EQ(snap.queue_depth, 3u);         // gauge shows now
  // The same pair is visible registry-side for scrapes.
  const obs::RegistrySnapshot reg = registry.SnapshotAll();
  EXPECT_EQ(reg.CounterValue("ingest.peak_queue_depth"), 900u);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("ingest.queue_depth"), 3.0);
}

TEST(IngestMetricsFacade, CountersVisibleThroughRegistry) {
  obs::Registry registry;
  ingest::IngestMetrics metrics(&registry);
  metrics.Reset();
  metrics.AddRecordsRead(11);
  metrics.AddMessagesEmitted(7);
  metrics.AddCommit(128, 5000);
  EXPECT_EQ(registry.SnapshotAll().CounterValue("ingest.records_read"), 11u);
  EXPECT_EQ(registry.SnapshotAll().CounterValue("ingest.commit_bytes"),
            128u);
  const ingest::IngestSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.messages_emitted, 7u);
  EXPECT_EQ(snap.commits, 1u);
}

TEST(IngestMetricsFacade, RecoveryGaugeSurvivesReset) {
  obs::Registry registry;
  ingest::IngestMetrics metrics(&registry);
  metrics.SetRecoveryNs(250'000'000);
  metrics.Reset();  // each Run re-baselines; the resume cost stays
  EXPECT_DOUBLE_EQ(metrics.Snapshot().recovery_seconds, 0.25);
  EXPECT_DOUBLE_EQ(
      registry.SnapshotAll().GaugeValue("ingest.recovery_seconds"), 0.25);
  // A new instance has no resume behind it.
  ingest::IngestMetrics next(&registry);
  EXPECT_DOUBLE_EQ(next.Snapshot().recovery_seconds, 0.0);
}

TEST(IngestSnapshot, DerivedRatesFollowTheCounters) {
  ingest::IngestSnapshot snap;
  EXPECT_EQ(snap.MessagesPerSecond(), 0.0);  // no division by zero
  EXPECT_EQ(snap.TokenizeMicrosPerMessage(), 0.0);
  EXPECT_EQ(snap.CheckpointMillis(), 0.0);
  EXPECT_EQ(snap.CommitMicros(), 0.0);
  snap.messages_emitted = 95;
  snap.elapsed_seconds = 2.0;
  snap.tokenize_ns = 95'000;        // 1 us per message
  snap.checkpoints = 2;
  snap.checkpoint_ns = 10'000'000;  // 5 ms per checkpoint
  snap.commits = 4;
  snap.commit_ns = 80'000;          // 20 us per commit
  EXPECT_NEAR(snap.MessagesPerSecond(), 47.5, 1e-9);
  EXPECT_NEAR(snap.TokenizeMicrosPerMessage(), 1.0, 1e-9);
  EXPECT_NEAR(snap.CheckpointMillis(), 5.0, 1e-9);
  EXPECT_NEAR(snap.CommitMicros(), 20.0, 1e-9);
}

// --- enable/disable ---

TEST(Enabled, SetEnabledTogglesTimers) {
  obs::Registry registry;
  obs::Histogram* h = registry.GetHistogram("e.lat");
  const bool was = obs::Enabled();
  obs::SetEnabled(false);
  { obs::ScopedHistogramTimer timer(h); }
  EXPECT_EQ(h->Snapshot().count, 0u);  // no clock, no record
  obs::SetEnabled(true);
  { obs::ScopedHistogramTimer timer(h); }
  EXPECT_EQ(h->Snapshot().count, 1u);
  obs::SetEnabled(was);
}

}  // namespace
}  // namespace scprt
