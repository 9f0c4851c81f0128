// Tests of the parallel engine: the ParallelDetector must emit the exact
// QuantumReport sequence at every thread count — 2 and 8 threads against
// the one-thread run, which executes inline (tests/golden_test.cc pins
// that run to committed digests); every thread count builds the quantum
// aggregate with akg::AggregateQuantum and differs only in the pool under
// the core's hot loops — and the pool/queue primitives must survive
// ThreadSanitizer-friendly stress.

#include <atomic>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "detect/report.h"
#include "engine/parallel_detector.h"
#include "engine/shard_pool.h"
#include "engine/spsc_queue.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"

namespace scprt::engine {
namespace {

using detect::EventSnapshot;
using detect::QuantumReport;

// Field-exact comparison. Every floating-point value must match bitwise:
// the engine runs all order-sensitive arithmetic on one canonical serial
// path at every thread count, so there is no reassociation to tolerate.
void ExpectSnapshotsEqual(const EventSnapshot& a, const EventSnapshot& b) {
  EXPECT_EQ(a.cluster_id, b.cluster_id);
  EXPECT_EQ(a.quantum, b.quantum);
  EXPECT_EQ(a.born_at, b.born_at);
  EXPECT_EQ(a.keywords, b.keywords);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.node_count, b.node_count);
  EXPECT_EQ(a.edge_count, b.edge_count);
  EXPECT_EQ(a.avg_ec, b.avg_ec);
  EXPECT_EQ(a.support, b.support);
  EXPECT_EQ(a.newly_reported, b.newly_reported);
  EXPECT_EQ(a.likely_spurious, b.likely_spurious);
}

void ExpectReportsEqual(const std::vector<QuantumReport>& expected,
                        const std::vector<QuantumReport>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t q = 0; q < expected.size(); ++q) {
    SCOPED_TRACE("quantum " + std::to_string(q));
    const QuantumReport& a = expected[q];
    const QuantumReport& b = actual[q];
    EXPECT_EQ(a.quantum, b.quantum);
    EXPECT_EQ(a.akg_nodes, b.akg_nodes);
    EXPECT_EQ(a.akg_edges, b.akg_edges);
    EXPECT_EQ(a.ckg_nodes, b.ckg_nodes);
    EXPECT_EQ(a.bursty_keywords, b.bursty_keywords);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t e = 0; e < a.events.size(); ++e) {
      SCOPED_TRACE("event " + std::to_string(e));
      ExpectSnapshotsEqual(a.events[e], b.events[e]);
    }
  }
}

stream::SyntheticTrace SmallTrace() {
  stream::SyntheticConfig config = stream::TimeWindowPreset(7);
  config.num_messages = 24'000;
  config.num_users = 6'000;
  config.background_vocab = 6'000;
  config.num_events = 8;
  config.num_spurious = 2;
  config.event_duration_min = 4'000;
  config.event_duration_max = 9'000;
  return stream::GenerateSyntheticTrace(config);
}

// Runs `config` over `trace` on `threads` workers.
std::vector<QuantumReport> RunAt(const stream::SyntheticTrace& trace,
                                 const detect::DetectorConfig& config,
                                 std::size_t threads) {
  ParallelDetector detector({config, threads}, &trace.dictionary);
  EXPECT_EQ(detector.threads(), threads);
  return detector.Run(trace.messages);
}

TEST(ParallelDetectorTest, MatchesOneThreadAt2_8Threads) {
  const stream::SyntheticTrace trace = SmallTrace();
  detect::DetectorConfig config;
  config.quantum_size = 160;

  const std::vector<QuantumReport> expected = RunAt(trace, config, 1);
  ASSERT_GT(expected.size(), 100u);  // the trace spans many quanta

  for (std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectReportsEqual(expected, RunAt(trace, config, threads));
  }
}

TEST(ParallelDetectorTest, MinHashOnlyModeMatchesOneThreadAt2_8Threads) {
  // In kMinHashOnly mode the bottom-p estimate alone decides which edges
  // are admitted, so every edge depends on the window signatures the
  // refresh batch computes on the pool: reports must stay bit-identical to
  // the one-thread run at every thread count.
  const stream::SyntheticTrace trace = SmallTrace();
  detect::DetectorConfig config;
  config.quantum_size = 160;
  config.akg.ec_mode = akg::EcMode::kMinHashOnly;

  const std::vector<QuantumReport> expected = RunAt(trace, config, 1);
  ASSERT_GT(expected.size(), 100u);

  for (std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectReportsEqual(expected, RunAt(trace, config, threads));
  }
}

TEST(ParallelDetectorTest, FormattedReportsAreByteIdentical) {
  const stream::SyntheticTrace trace = SmallTrace();
  detect::DetectorConfig config;
  config.quantum_size = 200;

  const std::vector<QuantumReport> expected = RunAt(trace, config, 1);
  const std::vector<QuantumReport> actual = RunAt(trace, config, 4);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t q = 0; q < expected.size(); ++q) {
    EXPECT_EQ(detect::FormatReport(expected[q], trace.dictionary),
              detect::FormatReport(actual[q], trace.dictionary))
        << "quantum " << q;
  }
}

TEST(ParallelDetectorTest, ProcessQuantumMatchesPushPath) {
  const stream::SyntheticTrace trace = SmallTrace();
  detect::DetectorConfig config;
  config.quantum_size = 160;

  ParallelDetectorConfig pconfig;
  pconfig.detector = config;
  pconfig.threads = 4;
  ParallelDetector pushed(pconfig, &trace.dictionary);
  ParallelDetector batched(pconfig, &trace.dictionary);

  const std::vector<QuantumReport> via_push = pushed.Run(trace.messages);
  const std::vector<stream::Quantum> quanta =
      stream::SplitIntoQuanta(trace.messages, config.quantum_size);
  std::vector<QuantumReport> via_batch;
  via_batch.reserve(quanta.size());
  for (const stream::Quantum& quantum : quanta) {
    via_batch.push_back(batched.ProcessQuantum(quantum));
  }
  ExpectReportsEqual(via_push, via_batch);
}

// Small quanta and many clusters churning — maximal scheduling variety per
// second, the shape ThreadSanitizer needs to expose ordering bugs.
TEST(ParallelDetectorTest, StressSmallQuantaManyThreads) {
  stream::SyntheticConfig sconfig = stream::TimeWindowPreset(11);
  sconfig.num_messages = 8'000;
  sconfig.num_users = 1'500;
  sconfig.background_vocab = 1'500;
  sconfig.num_events = 6;
  sconfig.event_duration_min = 1'000;
  sconfig.event_duration_max = 2'500;
  const stream::SyntheticTrace trace =
      stream::GenerateSyntheticTrace(sconfig);

  detect::DetectorConfig config;
  config.quantum_size = 40;
  config.akg.window_length = 12;

  ExpectReportsEqual(RunAt(trace, config, 1), RunAt(trace, config, 8));
}

TEST(ShardPoolTest, ParallelForCoversEveryIndexOnce) {
  ShardPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::uint32_t> hits(kN, 0);
  pool.ParallelFor(kN, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0u), kN);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](std::uint32_t h) { return h == 1; }));
}

TEST(ShardPoolTest, ManySmallRoundsDoNotDeadlockOrDropWork) {
  ShardPool pool(8);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 2'000; ++round) {
    pool.ParallelFor(8, [&](std::size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 2'000u * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

TEST(ShardPoolTest, InlineModeRunsOnCallerThread) {
  ShardPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = true;
  pool.ParallelFor(16, [&](std::size_t) {
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(on_caller);
}

TEST(SpscQueueTest, OrderedHandoffAcrossThreads) {
  SpscQueue<std::size_t> queue(64);
  constexpr std::size_t kItems = 200'000;
  std::thread consumer([&] {
    std::size_t expected = 0;
    while (expected < kItems) {
      std::size_t value;
      if (queue.TryPop(value)) {
        ASSERT_EQ(value, expected);
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::size_t i = 0; i < kItems; ++i) {
    while (!queue.TryPush(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace scprt::engine
