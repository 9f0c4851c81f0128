// Randomized checkpoint round-trip property: for random streams, random
// configurations and a random save point, the report stream after a restore
// is byte-identical to the uninterrupted run's — full snapshots and WAL
// recovery (segment + log replay). Labeled "slow".

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "detect/report.h"
#include "durability/backend.h"
#include "engine/parallel_detector.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "wal_harness.h"

namespace scprt {
namespace {

struct Scenario {
  stream::SyntheticTrace trace;
  detect::DetectorConfig config;
  std::vector<stream::Quantum> quanta;
  std::size_t save_at = 0;  // quanta processed before the checkpoint
};

Scenario RandomScenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;

  stream::SyntheticConfig trace_config;
  trace_config.seed = rng.Next();
  trace_config.num_messages = 10'000 + rng.UniformInt(8'000);
  trace_config.num_users = 1'000 + rng.UniformInt(3'000);
  trace_config.background_vocab = 1'500 + rng.UniformInt(3'000);
  trace_config.num_events = 3 + rng.UniformInt(5);
  trace_config.num_spurious = rng.UniformInt(3);
  trace_config.event_duration_min = 2'000;
  trace_config.event_duration_max = 6'000;
  trace_config.peak_share_min = 0.03;
  trace_config.peak_share_max = 0.09;
  trace_config.event_user_pool = 150 + rng.UniformInt(150);
  s.trace = stream::GenerateSyntheticTrace(trace_config);

  const std::size_t quantum_sizes[] = {80, 100, 160};
  s.config.quantum_size = quantum_sizes[rng.UniformInt(3)];
  s.config.akg.window_length = 8 + rng.UniformInt(12);
  s.config.akg.high_state_threshold = 3 + rng.UniformInt(3);
  s.config.akg.ec_threshold = 0.12 + 0.10 * rng.UniformDouble();
  s.config.akg.ec_mode = static_cast<akg::EcMode>(rng.UniformInt(3));
  s.config.require_noun = rng.Bernoulli(0.5);

  s.quanta = stream::SplitIntoQuanta(s.trace.messages,
                                     s.config.quantum_size);
  // Save somewhere in the middle third — late enough for live clusters and
  // evictions, early enough to leave a meaningful tail.
  s.save_at = s.quanta.size() / 3 +
              rng.UniformInt(std::max<std::size_t>(1, s.quanta.size() / 3));
  return s;
}

// Reference tail: digests of every report after `save_at`, uninterrupted.
std::vector<std::uint64_t> ReferenceTail(const Scenario& s) {
  engine::ParallelDetector reference({s.config}, &s.trace.dictionary);
  std::vector<std::uint64_t> tail;
  for (std::size_t q = 0; q < s.quanta.size(); ++q) {
    const detect::QuantumReport report =
        reference.ProcessQuantum(s.quanta[q]);
    if (q >= s.save_at) tail.push_back(detect::ReportDigest(report));
  }
  return tail;
}

// Requires `restored` to continue over the quanta after `save_at` with the
// reference digests.
void ExpectTailMatches(const Scenario& s,
                       const std::vector<std::uint64_t>& expected,
                       engine::ParallelDetector& restored,
                       const std::string& what) {
  ASSERT_FALSE(expected.empty());
  for (std::size_t q = s.save_at; q < s.quanta.size(); ++q) {
    const detect::QuantumReport report = restored.ProcessQuantum(s.quanta[q]);
    ASSERT_EQ(detect::ReportDigest(report), expected[q - s.save_at])
        << what << " diverged at quantum " << q << " (saved at "
        << s.save_at << ")";
  }
}

// A full snapshot of an engine after `save_at` quanta.
std::string SaveHead(const Scenario& s) {
  engine::ParallelDetector head({s.config}, &s.trace.dictionary);
  for (std::size_t q = 0; q < s.save_at; ++q) {
    head.ProcessQuantum(s.quanta[q]);
  }
  std::stringstream out;
  EXPECT_TRUE(durability::SaveSnapshot(head, out).ok());
  return out.str();
}

std::unique_ptr<engine::ParallelDetector> Load(const std::string& bytes,
                                               const Scenario& s) {
  std::stringstream in(bytes);
  return durability::LoadEngineSnapshot(in, &s.trace.dictionary, 1);
}

// Commits a WAL directory whose segment is cut `quanta_before_save` quanta
// before `save_at` (or after the first quantum, when that is earlier) and
// whose log holds one record per quantum up to it, recovers it and checks
// the tail.
void ExpectDeltaRoundTrip(const Scenario& s, std::size_t quanta_before_save,
                          const std::string& name) {
  const std::vector<std::uint64_t> expected = ReferenceTail(s);
  const std::size_t full_at = std::max<std::size_t>(
      1, s.save_at - std::min(s.save_at, quanta_before_save));
  engine::ParallelDetector head({s.config}, &s.trace.dictionary);
  test_util::WalHarness wal(name, s.trace.dictionary);
  for (std::size_t q = 0; q < s.save_at; ++q) {
    head.ProcessQuantum(s.quanta[q]);
    if (q + 1 >= full_at) wal.Commit(head, s.quanta[q]);
  }

  durability::RecoverResult recovered = wal.Recover();
  ASSERT_EQ(recovered.outcome, durability::RecoverResult::Outcome::kRecovered)
      << recovered.detail;
  EXPECT_EQ(recovered.replayed_quanta, s.save_at - full_at);
  ExpectTailMatches(s, expected, *recovered.engine, "wal restore");
}

TEST(CheckpointPropertyTest, FullRoundTripTailIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario s = RandomScenario(seed);
    const std::vector<std::uint64_t> expected = ReferenceTail(s);
    auto restored = Load(SaveHead(s), s);
    ASSERT_NE(restored, nullptr);
    ExpectTailMatches(s, expected, *restored, "full restore");
  }
}

TEST(CheckpointPropertyTest, DeltaRoundTripTailIsByteIdentical) {
  // Segment a few quanta before the save point, log records up to it.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 977);
    ExpectDeltaRoundTrip(RandomScenario(seed), 1 + rng.UniformInt(10),
                         "property_delta_" + std::to_string(seed));
  }
  ExpectDeltaRoundTrip(RandomScenario(33), 6, "property_delta_33");
}

TEST(CheckpointPropertyTest, MidQuantumSaveKeepsPendingExactly) {
  // Message-level (not quantum-aligned) save points: pending messages and
  // the clock survive, and the tail still matches byte for byte.
  for (std::uint64_t seed = 41; seed <= 42; ++seed) {
    const Scenario s = RandomScenario(seed);
    Rng rng(seed * 31);
    const std::size_t split =
        s.save_at * s.config.quantum_size +
        1 + rng.UniformInt(s.config.quantum_size - 1);

    engine::ParallelDetector reference({s.config}, &s.trace.dictionary);
    engine::ParallelDetector head({s.config}, &s.trace.dictionary);
    std::vector<std::uint64_t> expected;
    for (std::size_t i = 0; i < s.trace.messages.size(); ++i) {
      auto report = reference.Push(s.trace.messages[i]);
      if (report && i >= split) {
        expected.push_back(detect::ReportDigest(*report));
      }
      if (i < split) head.Push(s.trace.messages[i]);
    }
    ASSERT_FALSE(expected.empty());

    std::stringstream buffer;
    ASSERT_TRUE(durability::SaveSnapshot(head, buffer).ok());
    auto restored = Load(buffer.str(), s);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->quantizer().pending().size(),
              head.quantizer().pending().size());

    std::size_t at = 0;
    for (std::size_t i = split; i < s.trace.messages.size(); ++i) {
      if (auto report = restored->Push(s.trace.messages[i])) {
        ASSERT_LT(at, expected.size());
        ASSERT_EQ(detect::ReportDigest(*report), expected[at++])
            << "diverged after mid-quantum restore, seed " << seed;
      }
    }
    EXPECT_EQ(at, expected.size());
  }
}

}  // namespace
}  // namespace scprt
