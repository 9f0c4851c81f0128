// Tests of the engine driver (engine::ParallelDetector): the Push path and
// the pre-built-quantum path must emit the same QuantumReport sequence,
// two fresh engines must format byte-identical reports (no hidden state
// or address-dependent order).

#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "detect/report.h"
#include "engine/parallel_detector.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"

namespace scprt::engine {
namespace {

using detect::EventSnapshot;
using detect::QuantumReport;

// Field-exact comparison. Every floating-point value must match bitwise:
// the engine runs all order-sensitive arithmetic on one canonical serial
// path, so there is no reassociation to tolerate.
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

// Runs `config` over `trace` on a fresh engine.
std::vector<QuantumReport> RunFresh(const stream::SyntheticTrace& trace,
                                    const detect::DetectorConfig& config) {
  ParallelDetector detector({config}, &trace.dictionary);
  return detector.Run(trace.messages);
}

TEST(ParallelDetectorTest, FormattedReportsAreByteIdentical) {
  const stream::SyntheticTrace trace = SmallTrace();
  detect::DetectorConfig config;
  config.quantum_size = 200;

  const std::vector<QuantumReport> expected = RunFresh(trace, config);
  const std::vector<QuantumReport> actual = RunFresh(trace, config);
  ASSERT_GT(expected.size(), 100u);  // the trace spans many quanta
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

  ParallelDetector pushed({config}, &trace.dictionary);
  ParallelDetector batched({config}, &trace.dictionary);

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

// Only the first pre-built quantum re-bases the clock. A later index other
// than the clock's next one (a forward jump or a repeat) aborts in the
// engine's own check, before the quantizer or the core changes.
TEST(ParallelDetectorTest, LaterQuantumMustCarryTheNextIndex) {
  const stream::SyntheticTrace trace = SmallTrace();
  detect::DetectorConfig config;
  config.quantum_size = 160;
  const std::vector<stream::Quantum> quanta =
      stream::SplitIntoQuanta(trace.messages, config.quantum_size);
  ParallelDetector detector({config}, &trace.dictionary);
  detector.ProcessQuantum(quanta[0]);
  detector.ProcessQuantum(quanta[1]);
  EXPECT_EQ(detector.next_quantum_index(), 2);
  stream::Quantum jump = quanta[2];
  jump.index = 5;
  EXPECT_DEATH(detector.ProcessQuantum(jump),
               "quantum\\.index == quantizer_\\.next_index\\(\\)");
  EXPECT_DEATH(detector.ProcessQuantum(quanta[1]),
               "quantum\\.index == quantizer_\\.next_index\\(\\)");
  EXPECT_EQ(detector.next_quantum_index(), 2);
}

// The top index leaves the clock no successor: a fresh engine refuses a
// first quantum there before any state changes. (checkpoint_fuzz_test
// covers a loaded clock that reaches it.)
TEST(ParallelDetectorTest, RefusesTheQuantumWithoutASuccessor) {
  const stream::SyntheticTrace trace = SmallTrace();
  detect::DetectorConfig config;
  config.quantum_size = 160;
  ParallelDetector detector({config}, &trace.dictionary);
  stream::Quantum top =
      stream::SplitIntoQuanta(trace.messages, config.quantum_size)[0];
  top.index = std::numeric_limits<QuantumIndex>::max();
  EXPECT_DEATH(detector.ProcessQuantum(top), "quantum\\.index <");
  EXPECT_EQ(detector.next_quantum_index(), 0);
}

}  // namespace
}  // namespace scprt::engine
