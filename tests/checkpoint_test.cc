// Tests for the one-shot snapshot surface of durability/backend.h —
// native structural snapshots of the detector — and for the WAL log
// replay on top of them (segment + one record per quantum, driven through
// a durability::WalBackend directory).
//
// The replay-era suite asserted approximate convergence after a restore;
// the native format is held to the strict contract: the post-restore report
// stream is bit-identical to a never-restarted detector's, cluster ids and
// birth stamps survive, and NEW markers do not refire. The randomized sweep
// lives in checkpoint_property_test.cc; corruption handling in
// checkpoint_fuzz_test.cc.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "detect/report.h"
#include "durability/backend.h"
#include "durability/manifest.h"
#include "engine/parallel_detector.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "wal_harness.h"

namespace scprt::detect {
namespace {

using engine::ParallelDetector;

stream::SyntheticTrace SmallTrace() {
  stream::SyntheticConfig config;
  config.seed = 11;
  config.num_messages = 20'000;
  config.num_users = 4'000;
  config.background_vocab = 5'000;
  config.num_events = 4;
  config.num_spurious = 1;
  config.peak_share_min = 0.05;
  config.peak_share_max = 0.09;
  return GenerateSyntheticTrace(config);
}

DetectorConfig SmallConfig() {
  DetectorConfig config;
  config.quantum_size = 100;
  config.akg.window_length = 10;
  return config;
}

// A full snapshot of `detector` as bytes.
std::string Save(ParallelDetector& detector,
                 std::uint64_t* checkpoint_id = nullptr) {
  std::stringstream out;
  EXPECT_TRUE(durability::SaveSnapshot(detector, out, checkpoint_id).ok());
  return out.str();
}

// Restores `bytes` into an engine on `threads` workers.
std::unique_ptr<ParallelDetector> Load(
    const std::string& bytes, const text::KeywordDictionary* dictionary,
    std::size_t threads = 1, std::uint64_t* checkpoint_id = nullptr) {
  std::stringstream in(bytes);
  return durability::LoadEngineSnapshot(in, dictionary, threads,
                                        checkpoint_id);
}

// Reports of `detector` over messages [from, end) of `trace`.
std::vector<QuantumReport> PushTail(ParallelDetector& detector,
                                    const stream::SyntheticTrace& trace,
                                    std::size_t from) {
  std::vector<QuantumReport> reports;
  for (std::size_t i = from; i < trace.messages.size(); ++i) {
    if (auto report = detector.Push(trace.messages[i])) {
      reports.push_back(*std::move(report));
    }
  }
  return reports;
}

TEST(CheckpointTest, RoundTripIsBitIdentical) {
  const stream::SyntheticTrace trace = SmallTrace();
  const DetectorConfig config = SmallConfig();
  const std::size_t split = trace.messages.size() / 2;

  // Reference detector: runs the whole trace uninterrupted.
  ParallelDetector reference({config, 1}, &trace.dictionary);
  std::vector<QuantumReport> ref_tail;
  for (std::size_t i = 0; i < trace.messages.size(); ++i) {
    auto report = reference.Push(trace.messages[i]);
    if (report && i >= split) ref_tail.push_back(*std::move(report));
  }

  // Checkpointed detector: first half, save, load, second half.
  ParallelDetector first_half({config, 1}, &trace.dictionary);
  for (std::size_t i = 0; i < split; ++i) {
    first_half.Push(trace.messages[i]);
  }
  auto restored = Load(Save(first_half), &trace.dictionary);
  ASSERT_NE(restored, nullptr);

  const std::vector<QuantumReport> restored_tail =
      PushTail(*restored, trace, split);
  ASSERT_EQ(restored_tail.size(), ref_tail.size());
  ASSERT_GT(ref_tail.size(), 10u);
  for (std::size_t i = 0; i < ref_tail.size(); ++i) {
    EXPECT_EQ(restored_tail[i], ref_tail[i]) << "tail report " << i;
    EXPECT_EQ(ReportDigest(restored_tail[i]), ReportDigest(ref_tail[i]));
  }
}

TEST(CheckpointTest, MinHashOnlyRoundTripIsBitIdentical) {
  // In kMinHashOnly mode every EC is the signature estimate, so the restore
  // must reproduce the saved signatures and the id-set histories that the
  // next refreshes sign exactly. Save mid-stream,
  // restore at 1 AND 4 threads, and require the tail reports bit-identical
  // to an uninterrupted run.
  const stream::SyntheticTrace trace = SmallTrace();
  DetectorConfig config = SmallConfig();
  config.akg.ec_mode = akg::EcMode::kMinHashOnly;
  const std::size_t split = trace.messages.size() / 2;

  ParallelDetector reference({config, 1}, &trace.dictionary);
  std::vector<QuantumReport> ref_tail;
  for (std::size_t i = 0; i < trace.messages.size(); ++i) {
    auto report = reference.Push(trace.messages[i]);
    if (report && i >= split) ref_tail.push_back(*std::move(report));
  }
  ASSERT_GT(ref_tail.size(), 10u);

  ParallelDetector first_half({config, 1}, &trace.dictionary);
  for (std::size_t i = 0; i < split; ++i) {
    first_half.Push(trace.messages[i]);
  }
  const std::string bytes = Save(first_half);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto restored = Load(bytes, &trace.dictionary, threads);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->core().config().akg.ec_mode,
              akg::EcMode::kMinHashOnly);
    const std::vector<QuantumReport> tail =
        PushTail(*restored, trace, split);
    ASSERT_EQ(tail.size(), ref_tail.size());
    for (std::size_t i = 0; i < ref_tail.size(); ++i) {
      EXPECT_EQ(tail[i], ref_tail[i]) << "tail report " << i;
    }
  }
}

TEST(CheckpointTest, StableIdsAndNoNewRefire) {
  const stream::SyntheticTrace trace = SmallTrace();
  const DetectorConfig config = SmallConfig();
  const std::size_t split = trace.messages.size() / 2;

  ParallelDetector detector({config, 1}, &trace.dictionary);
  std::vector<QuantumReport> head;
  for (std::size_t i = 0; i < split; ++i) {
    if (auto report = detector.Push(trace.messages[i])) {
      head.push_back(*std::move(report));
    }
  }
  // At least one live event must have been reported before the split for
  // this test to mean anything.
  std::size_t reported_before = 0;
  for (const QuantumReport& r : head) reported_before += r.events.size();
  ASSERT_GT(reported_before, 0u);

  auto restored = Load(Save(detector), &trace.dictionary);
  ASSERT_NE(restored, nullptr);

  // The first-report set survives verbatim: ids reported before the crash
  // can never be announced NEW again.
  const auto& reported = detector.core().reported_ids();
  EXPECT_EQ(restored->core().reported_ids(), reported);
  for (const QuantumReport& report : PushTail(*restored, trace, split)) {
    for (const EventSnapshot& e : report.events) {
      if (reported.count(e.cluster_id)) {
        EXPECT_FALSE(e.newly_reported)
            << "NEW refired for cluster " << e.cluster_id;
      }
    }
  }
}

TEST(CheckpointTest, PendingMessagesSurviveExactly) {
  const stream::SyntheticTrace trace = SmallTrace();
  const DetectorConfig config = SmallConfig();
  // Split mid-quantum so the partial quantum matters.
  const std::size_t split = 5 * config.quantum_size + 37;

  ParallelDetector reference({config, 1}, &trace.dictionary);
  ParallelDetector first_half({config, 1}, &trace.dictionary);
  for (std::size_t i = 0; i < split; ++i) {
    reference.Push(trace.messages[i]);
    first_half.Push(trace.messages[i]);
  }
  EXPECT_EQ(first_half.quantizer().pending().size(), 37u);

  auto restored = Load(Save(first_half), &trace.dictionary);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->quantizer().pending().size(), 37u);
  EXPECT_EQ(restored->next_quantum_index(), reference.next_quantum_index());

  // The next quantum closes at the same message with an identical report.
  std::optional<QuantumReport> ref_report, restored_report;
  for (std::size_t i = split; i < trace.messages.size(); ++i) {
    ref_report = reference.Push(trace.messages[i]);
    restored_report = restored->Push(trace.messages[i]);
    ASSERT_EQ(ref_report.has_value(), restored_report.has_value());
    if (ref_report) break;
  }
  ASSERT_TRUE(ref_report.has_value());
  EXPECT_EQ(*restored_report, *ref_report);
}

TEST(CheckpointTest, DeltaCheckpointRestoresExactly) {
  // A WAL generation: the segment is cut after `full_at` quanta and every
  // later quantum is one log record; recovery restores the segment and
  // replays the records.
  const stream::SyntheticTrace trace = SmallTrace();
  const DetectorConfig config = SmallConfig();
  const std::vector<stream::Quantum> quanta =
      stream::SplitIntoQuanta(trace.messages, config.quantum_size);
  ASSERT_GT(quanta.size(), 40u);
  const std::size_t full_at = 20;   // segment after this many quanta
  const std::size_t delta_at = 29;  // log records up to this many

  ParallelDetector reference({config, 1}, &trace.dictionary);
  test_util::WalHarness wal("delta_restores_exactly", trace.dictionary);
  for (std::size_t q = 0; q < delta_at; ++q) {
    reference.ProcessQuantum(quanta[q]);
    if (q + 1 >= full_at) wal.Commit(reference, quanta[q]);
  }

  durability::RecoverResult recovered = wal.Recover(1);
  ASSERT_EQ(recovered.outcome, durability::RecoverResult::Outcome::kRecovered)
      << recovered.detail;
  EXPECT_TRUE(recovered.error.ok()) << recovered.error.ToString();
  EXPECT_EQ(recovered.replayed_quanta, delta_at - full_at);
  ParallelDetector& restored = *recovered.engine;

  // Both continue over the rest of the trace with identical reports.
  for (std::size_t q = delta_at; q < quanta.size(); ++q) {
    const QuantumReport expected = reference.ProcessQuantum(quanta[q]);
    const QuantumReport actual = restored.ProcessQuantum(quanta[q]);
    ASSERT_EQ(actual, expected) << "quantum " << q;
  }
}

TEST(CheckpointTest, EngineDeltaKeepsMidQuantumPending) {
  // Log records must carry the quantizer's pending partial quantum — a
  // record committed mid-quantum and recovered must not lose buffered
  // messages. The last closed quantum is committed late, once `extra`
  // messages of the next one are buffered.
  const stream::SyntheticTrace trace = SmallTrace();
  const DetectorConfig config = SmallConfig();
  const std::size_t quanta_before = 12;
  const std::size_t extra = 37;  // messages into quantum 12 at commit time
  const std::size_t split = quanta_before * config.quantum_size + extra;

  ParallelDetector head({config, 2}, &trace.dictionary);
  test_util::WalHarness wal("delta_keeps_pending", trace.dictionary);
  stream::Quantum last_closed;
  for (std::size_t i = 0; i < split; ++i) {
    head.Push(trace.messages[i]);
    if ((i + 1) % config.quantum_size == 0) {
      const std::size_t q = (i + 1) / config.quantum_size - 1;
      stream::Quantum quantum;
      quantum.index = static_cast<QuantumIndex>(q);
      quantum.messages.assign(
          trace.messages.begin() +
              static_cast<std::ptrdiff_t>(q * config.quantum_size),
          trace.messages.begin() +
              static_cast<std::ptrdiff_t>((q + 1) * config.quantum_size));
      if (q + 1 == quanta_before) {
        last_closed = std::move(quantum);
      } else if (q >= 7) {  // the segment is cut after quantum 7
        wal.Commit(head, quantum);
      }
    }
  }
  ASSERT_EQ(head.quantizer().pending().size(), extra);
  wal.Commit(head, last_closed);

  durability::RecoverResult recovered = wal.Recover(2);
  ASSERT_EQ(recovered.outcome, durability::RecoverResult::Outcome::kRecovered)
      << recovered.detail;
  ParallelDetector& restored = *recovered.engine;
  EXPECT_EQ(restored.threads(), 2u);
  EXPECT_EQ(restored.quantizer().pending().size(), extra);

  // Reference: uninterrupted one-thread run over the same stream. The
  // first report after the commit point must match exactly — it can only
  // if the `extra` buffered messages survived the log round trip.
  ParallelDetector reference({config, 1}, &trace.dictionary);
  for (std::size_t i = 0; i < split; ++i) {
    reference.Push(trace.messages[i]);
  }
  std::optional<QuantumReport> ref_report, restored_report;
  for (std::size_t i = split; i < trace.messages.size(); ++i) {
    ref_report = reference.Push(trace.messages[i]);
    restored_report = restored.Push(trace.messages[i]);
    ASSERT_EQ(ref_report.has_value(), restored_report.has_value());
    if (ref_report) break;
  }
  ASSERT_TRUE(ref_report.has_value());
  EXPECT_EQ(*restored_report, *ref_report);
}

TEST(CheckpointTest, DeltaRejectsWrongBase) {
  // Log records chained to another segment are refused: the log of one
  // directory is planted next to a segment cut at the same quantum from a
  // different engine state. Recovery keeps the segment, replays nothing,
  // and names the broken chain.
  const stream::SyntheticTrace trace = SmallTrace();
  const DetectorConfig config = SmallConfig();
  DetectorConfig other_config = config;
  other_config.akg.window_length = config.akg.window_length + 2;
  const std::vector<stream::Quantum> quanta =
      stream::SplitIntoQuanta(trace.messages, config.quantum_size);

  const auto drive = [&](const DetectorConfig& c, const std::string& name) {
    auto wal = std::make_unique<test_util::WalHarness>(name, trace.dictionary);
    ParallelDetector detector({c, 1}, &trace.dictionary);
    for (std::size_t q = 0; q < 12; ++q) {
      detector.ProcessQuantum(quanta[q]);
      if (q >= 7) wal->Commit(detector, quanta[q]);
    }
    return wal;
  };
  const auto chained = drive(config, "delta_wrong_base_log");
  const auto other = drive(other_config, "delta_wrong_base_segment");
  const auto log_of = [](const test_util::WalHarness& wal) {
    const auto wals = durability::ListDurabilityFiles(wal.directory()).wals;
    EXPECT_EQ(wals.size(), 1u);
    return std::filesystem::path(wal.directory()) / wals.back().second;
  };
  const auto overwrite = std::filesystem::copy_options::overwrite_existing;
  std::filesystem::copy_file(log_of(*chained), log_of(*other), overwrite);

  durability::RecoverResult recovered = other->Recover(1);
  ASSERT_EQ(recovered.outcome, durability::RecoverResult::Outcome::kRecovered)
      << recovered.detail;
  EXPECT_EQ(recovered.replayed_quanta, 0u);
  EXPECT_EQ(recovered.engine->next_quantum_index(), 8);
  EXPECT_EQ(recovered.error.code, durability::ErrorCode::kCorrupt);
  EXPECT_NE(recovered.detail.find("chained to another segment"),
            std::string::npos)
      << recovered.detail;
}

TEST(CheckpointTest, SaveLoadSaveIsByteIdentical) {
  // The encoding is canonical (all unordered structures serialize sorted),
  // so a loaded detector re-saves to the exact same bytes.
  const stream::SyntheticTrace trace = SmallTrace();
  ParallelDetector detector({SmallConfig(), 1}, &trace.dictionary);
  for (std::size_t i = 0; i < trace.messages.size() / 2; ++i) {
    detector.Push(trace.messages[i]);
  }
  std::uint64_t first_id = 0;
  const std::string first = Save(detector, &first_id);
  std::uint64_t loaded_id = 0;
  auto restored = Load(first, &trace.dictionary, 1, &loaded_id);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(loaded_id, first_id);
  std::uint64_t second_id = 0;
  EXPECT_EQ(Save(*restored, &second_id), first);
  EXPECT_EQ(second_id, first_id);
}

TEST(CheckpointTest, RejectsGarbage) {
  EXPECT_EQ(Load("nonsense 1\n", nullptr), nullptr);
  EXPECT_EQ(Load("", nullptr), nullptr);
}

TEST(CheckpointTest, FileStreamRoundTrip) {
  const stream::SyntheticTrace trace = SmallTrace();
  ParallelDetector detector({SmallConfig(), 1}, &trace.dictionary);
  for (std::size_t i = 0; i < 5'000; ++i) {
    detector.Push(trace.messages[i]);
  }
  const std::string path =
      ::testing::TempDir() + "/scprt_checkpoint_test.snap";
  std::uint64_t saved_id = 0;
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(durability::SaveSnapshot(detector, out, &saved_id).ok());
  }
  std::uint64_t loaded_id = 0;
  std::ifstream in(path, std::ios::binary);
  auto restored =
      durability::LoadEngineSnapshot(in, &trace.dictionary, 1, &loaded_id);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(loaded_id, saved_id);
  EXPECT_EQ(restored->next_quantum_index(), detector.next_quantum_index());

  // Unopenable files surface as typed I/O errors on both sides.
  std::ifstream missing(path + ".missing", std::ios::binary);
  durability::Error error;
  EXPECT_EQ(durability::LoadEngineSnapshot(missing, nullptr, 1, nullptr,
                                           &error),
            nullptr);
  EXPECT_EQ(error.code, durability::ErrorCode::kIo);
  std::ofstream unwritable("/nonexistent-dir/x.snap", std::ios::binary);
  EXPECT_EQ(durability::SaveSnapshot(detector, unwritable).code,
            durability::ErrorCode::kIo);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ConfigSurvivesRoundTrip) {
  DetectorConfig config = SmallConfig();
  config.akg.ec_threshold = 0.17;
  config.akg.high_state_threshold = 6;
  config.min_event_nodes = 4;
  config.require_noun = false;
  ParallelDetector detector({config, 1}, nullptr);
  auto restored = Load(Save(detector), nullptr);
  ASSERT_NE(restored, nullptr);
  const DetectorConfig& loaded = restored->core().config();
  EXPECT_EQ(loaded.quantum_size, config.quantum_size);
  EXPECT_DOUBLE_EQ(loaded.akg.ec_threshold, 0.17);
  EXPECT_EQ(loaded.akg.high_state_threshold, 6u);
  EXPECT_EQ(loaded.min_event_nodes, 4u);
  EXPECT_FALSE(loaded.require_noun);
}

}  // namespace
}  // namespace scprt::detect
