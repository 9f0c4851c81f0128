// Randomized checkpoint round-trip property: for random streams, random
// configurations and a random save point, the report stream after a restore
// is byte-identical to the uninterrupted run's — full and delta snapshots,
// at 1 and 8 threads, and across thread counts (save at 1 / restore at 8
// and the reverse: thread count is an engine property, not a snapshot
// property). Labeled "slow".

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
  engine::ParallelDetector reference({s.config, 1}, &s.trace.dictionary);
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

// A full snapshot of an engine on `threads` workers after `save_at` quanta.
std::string SaveHead(const Scenario& s, std::size_t threads) {
  engine::ParallelDetector head({s.config, threads}, &s.trace.dictionary);
  for (std::size_t q = 0; q < s.save_at; ++q) {
    head.ProcessQuantum(s.quanta[q]);
  }
  std::stringstream out;
  EXPECT_TRUE(durability::SaveSnapshot(head, out).ok());
  return out.str();
}

std::unique_ptr<engine::ParallelDetector> Load(const std::string& bytes,
                                               const Scenario& s,
                                               std::size_t threads) {
  std::stringstream in(bytes);
  auto engine =
      durability::LoadEngineSnapshot(in, &s.trace.dictionary, threads);
  if (engine != nullptr) {
    EXPECT_EQ(engine->threads(), threads);
  }
  return engine;
}

// Saves a full snapshot `quanta_before_save` quanta before `save_at` and a
// delta at it, restores on `threads` workers and checks the tail.
void ExpectDeltaRoundTrip(const Scenario& s, std::size_t quanta_before_save,
                          std::size_t threads) {
  const std::vector<std::uint64_t> expected = ReferenceTail(s);
  const std::size_t full_at =
      s.save_at - std::min(s.save_at, quanta_before_save);
  engine::ParallelDetector head({s.config, threads}, &s.trace.dictionary);
  std::stringstream full, delta;
  std::uint64_t base_id = 0;
  std::vector<stream::Quantum> log;
  if (full_at == 0) {
    ASSERT_TRUE(durability::SaveSnapshot(head, full, &base_id).ok());
  }
  for (std::size_t q = 0; q < s.save_at; ++q) {
    head.ProcessQuantum(s.quanta[q]);
    log.push_back(s.quanta[q]);
    if (q + 1 == full_at) {
      ASSERT_TRUE(durability::SaveSnapshot(head, full, &base_id).ok());
      log.clear();
    }
  }
  ASSERT_TRUE(durability::SaveDeltaSnapshot(head, base_id, log, delta).ok());

  auto restored = Load(full.str(), s, threads);
  ASSERT_NE(restored, nullptr);
  ASSERT_TRUE(durability::ApplyDeltaSnapshot(*restored, delta, base_id).ok());
  ExpectTailMatches(s, expected, *restored,
                    "delta restore at " + std::to_string(threads) +
                        " threads");
}

TEST(CheckpointPropertyTest, FullRoundTripTailIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario s = RandomScenario(seed);
    const std::vector<std::uint64_t> expected = ReferenceTail(s);
    auto restored = Load(SaveHead(s, 1), s, 1);
    ASSERT_NE(restored, nullptr);
    ExpectTailMatches(s, expected, *restored, "full restore");
  }
}

TEST(CheckpointPropertyTest, DeltaRoundTripTailIsByteIdentical) {
  // Full snapshot a few quanta before the save point, delta at it.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 977);
    ExpectDeltaRoundTrip(RandomScenario(seed), 1 + rng.UniformInt(10), 1);
  }
}

TEST(CheckpointPropertyTest, ShardedRoundTripAcrossThreadCounts) {
  // Save at 1 and 8 threads, restore each at 1 and 8 threads.
  const Scenario s = RandomScenario(21);
  const std::vector<std::uint64_t> expected = ReferenceTail(s);
  for (const std::size_t save_threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string snapshot = SaveHead(s, save_threads);
    for (const std::size_t load_threads :
         {std::size_t{1}, std::size_t{8}}) {
      auto restored = Load(snapshot, s, load_threads);
      ASSERT_NE(restored, nullptr);
      ExpectTailMatches(s, expected, *restored,
                        "save@" + std::to_string(save_threads) + " load@" +
                            std::to_string(load_threads));
    }
  }
}

TEST(CheckpointPropertyTest, ShardedDeltaRoundTrip) {
  ExpectDeltaRoundTrip(RandomScenario(33), 6, 8);
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

    engine::ParallelDetector reference({s.config, 1}, &s.trace.dictionary);
    engine::ParallelDetector head({s.config, 1}, &s.trace.dictionary);
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
    auto restored = Load(buffer.str(), s, 1);
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
