// Checkpoint-aware ingest: source cursors, durable-session kill/resume
// equivalence (the headline property — a pipeline checkpointed mid-stream,
// its process state discarded, resumed from the WAL + source cursor emits
// report digests bit-identical to a never-interrupted run, at 1 and 4
// tokenizer workers, seeded and fresh-dictionary), PR 2-era snapshot
// compatibility (no IngestState section), typed load errors, and the
// dictionary blob codec.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "detect/detector.h"
#include "detect/report.h"
#include "detect/snapshot_io.h"
#include "durability/backend.h"
#include "engine/parallel_detector.h"
#include "ingest/durable.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "ingest/text_export.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "text/concurrent_dictionary.h"

namespace scprt::ingest {
namespace {

namespace fs = std::filesystem;
namespace sio = detect::snapshot_io;

stream::SyntheticTrace SmallTrace(std::uint64_t seed = 29) {
  stream::SyntheticConfig config;
  config.seed = seed;
  config.num_messages = 9'000;
  config.num_users = 1'500;
  config.background_vocab = 2'500;
  config.num_events = 4;
  config.num_spurious = 1;
  config.event_duration_min = 2'500;
  config.event_duration_max = 5'000;
  config.peak_share_min = 0.04;
  config.peak_share_max = 0.10;
  return GenerateSyntheticTrace(config);
}

detect::DetectorConfig SmallDetectorConfig() {
  detect::DetectorConfig config;
  config.quantum_size = 120;
  return config;
}

// Serial re-intern reference (the id assignment a fresh-dictionary ingest
// run must reproduce) — mirrors ingest_pipeline_test.cc.
struct ReinternedTrace {
  std::vector<stream::Message> messages;
  text::KeywordDictionary dictionary;
};

ReinternedTrace ReinternSerially(const stream::SyntheticTrace& trace) {
  ReinternedTrace out;
  out.messages.reserve(trace.messages.size());
  for (const stream::Message& message : trace.messages) {
    stream::Message copy = message;
    copy.keywords.clear();
    for (const KeywordId id : message.keywords) {
      copy.keywords.push_back(
          out.dictionary.Intern(trace.dictionary.Spelling(id)));
    }
    out.messages.push_back(std::move(copy));
  }
  return out;
}

// Per-quantum digests of the pre-tokenized trace path at one engine thread
// (the ground truth both the interrupted and uninterrupted ingest runs
// must match).
std::map<QuantumIndex, std::uint64_t> ReferenceDigests(
    const std::vector<stream::Message>& messages,
    const text::KeywordDictionary& dictionary,
    const detect::DetectorConfig& config) {
  engine::ParallelDetector detector({config, 1}, &dictionary);
  std::map<QuantumIndex, std::uint64_t> digests;
  for (const stream::Quantum& quantum : stream::SplitIntoQuanta(
           messages, config.quantum_size, /*keep_partial=*/true)) {
    digests[quantum.index] =
        detect::ReportDigest(detector.ProcessQuantum(quantum));
  }
  return digests;
}

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

// ------------------------------------------------------ Source cursors --

TEST(SourceCursorTest, JsonlPositionSeekRoundTrip) {
  const stream::SyntheticTrace trace = SmallTrace(31);
  std::stringstream text;
  ASSERT_TRUE(WriteJsonl(trace, text));
  const std::string content = text.str();

  std::stringstream first(content);
  JsonlSource source(first);
  EXPECT_TRUE(source.seekable());
  RawRecord record;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(source.Next(record));
  const SourcePosition position = source.Position();
  EXPECT_EQ(position.record_index, 100u);
  ASSERT_TRUE(source.Next(record));
  const RawRecord want = record;

  std::stringstream second(content);
  JsonlSource resumed(second);
  ASSERT_TRUE(resumed.Seek(position));
  EXPECT_EQ(resumed.Position().record_index, 100u);
  ASSERT_TRUE(resumed.Next(record));
  EXPECT_EQ(record.user, want.user);
  EXPECT_EQ(record.text, want.text);
  EXPECT_EQ(resumed.Position().record_index, 101u);
}

TEST(SourceCursorTest, TsvPositionSeekRoundTrip) {
  std::string content;
  for (int i = 0; i < 50; ++i) {
    content += std::to_string(i % 7) + "\tword" + std::to_string(i) +
               " common text\n";
  }
  std::stringstream first(content);
  TsvSource source(first);
  RawRecord record;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(source.Next(record));
  const SourcePosition position = source.Position();

  std::stringstream second(content);
  TsvSource resumed(second);
  ASSERT_TRUE(resumed.Seek(position));
  ASSERT_TRUE(resumed.Next(record));
  EXPECT_EQ(record.text, "word20 common text");
}

TEST(SourceCursorTest, GeneratorAndTraceSourcesSeekByIndex) {
  const stream::SyntheticTrace trace = SmallTrace(37);
  TraceSource source(trace.messages);
  RawRecord record;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(source.Next(record));
  ASSERT_TRUE(source.Seek(SourcePosition{3, 3}));
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record.user, trace.messages[3].user);
  EXPECT_EQ(record.keywords, trace.messages[3].keywords);
  EXPECT_FALSE(
      source.Seek(SourcePosition{trace.messages.size() + 1, 0}));
}

// --------------------------------------------- Kill/resume equivalence --

struct KillResumeCase {
  std::size_t workers;
  bool seeded;
  std::size_t engine_threads;
};

void RunKillResumeCase(const KillResumeCase& c) {
  SCOPED_TRACE(::testing::Message()
               << "workers=" << c.workers << " seeded=" << c.seeded
               << " engine_threads=" << c.engine_threads);
  const stream::SyntheticTrace trace = SmallTrace();
  const detect::DetectorConfig detector_config = SmallDetectorConfig();
  std::stringstream text;
  ASSERT_TRUE(WriteJsonl(trace, text));
  const std::string content = text.str();

  // Ground truth: the uninterrupted serial trace path.
  std::map<QuantumIndex, std::uint64_t> want;
  if (c.seeded) {
    want = ReferenceDigests(trace.messages, trace.dictionary,
                            detector_config);
  } else {
    const ReinternedTrace reference = ReinternSerially(trace);
    want = ReferenceDigests(reference.messages, reference.dictionary,
                            detector_config);
  }

  IngestConfig ingest_config;
  ingest_config.workers = c.workers;
  ingest_config.queue_capacity = 64;
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = detector_config;
  engine_config.threads = c.engine_threads;
  DurableConfig durable;
  durable.directory = TempDir(
      "kill_resume_" + std::to_string(c.workers) +
      (c.seeded ? "_seeded" : "_fresh") + std::to_string(c.engine_threads));
  durable.checkpoint_quanta = 3;
  durable.full_interval = 2;  // a segment every 6 quanta, records between

  // Phase 1: ingest until the "crash" — 4,700 records in (mid-quantum,
  // several checkpoints deep), then the process state is discarded.
  std::map<QuantumIndex, std::uint64_t> before;
  {
    DurableIngest session(ingest_config, engine_config, durable);
    if (c.seeded) session.dictionary().SeedFrom(trace.dictionary);
    std::stringstream stream1(content);
    JsonlSource inner(stream1);
    LimitedSource source(inner, 4'700);
    const auto snapshot = session.Run(
        source,
        [&](const detect::QuantumReport& report) {
          before[report.quantum] = detect::ReportDigest(report);
        },
        /*flush_partial=*/false);  // a crash reports nothing extra
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_GT(snapshot->checkpoints, 0u);
  }  // session destroyed: every in-memory structure is gone

  // Phase 2: a new process resumes from the directory and replays the
  // tail from the source cursor onward.
  DurableIngest session(ingest_config, engine_config, durable);
  const ResumeResult resume = session.Resume();
  ASSERT_EQ(resume.outcome, ResumeResult::Outcome::kResumed)
      << resume.detail;
  EXPECT_GT(resume.next_quantum, 0);
  EXPECT_GT(resume.cursor.record_index, 0u);
  EXPECT_LE(resume.cursor.record_index, 4'700u);

  std::map<QuantumIndex, std::uint64_t> after;
  std::stringstream stream2(content);
  JsonlSource source2(stream2);
  const auto snapshot = session.Run(
      source2,
      [&](const detect::QuantumReport& report) {
        after[report.quantum] = detect::ReportDigest(report);
      },
      /*flush_partial=*/true);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_GT(snapshot->recovery_seconds, 0.0);

  // The resumed run starts exactly at the fence quantum...
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.begin()->first, resume.next_quantum);
  // ...re-emits the quanta the crash threw away bit-identically to what
  // the first process had reported for them...
  for (const auto& [quantum, digest] : after) {
    const auto overlap = before.find(quantum);
    if (overlap != before.end()) {
      EXPECT_EQ(digest, overlap->second)
          << "replayed quantum " << quantum << " diverged";
    }
  }
  // ...and the stitched stream (pre-fence reports from run 1, the rest
  // from run 2) is bit-identical to the never-interrupted reference.
  std::map<QuantumIndex, std::uint64_t> stitched;
  for (const auto& [quantum, digest] : before) {
    if (quantum < resume.next_quantum) stitched[quantum] = digest;
  }
  stitched.insert(after.begin(), after.end());
  EXPECT_EQ(stitched, want);
}

// Every quantum is a log record, so the resumed fence is the last
// committed quantum — and the stitched report stream must stay
// bit-identical at 1 and 4 workers, seeded and fresh, 1 and 2 engine
// threads.
TEST(KillResumeTest, WalOneWorkerSeeded) {
  RunKillResumeCase({1, true, 1});
}

TEST(KillResumeTest, WalFourWorkersSeeded) {
  RunKillResumeCase({4, true, 1});
}

TEST(KillResumeTest, WalOneWorkerFreshDictionary) {
  RunKillResumeCase({1, false, 1});
}

TEST(KillResumeTest, WalFourWorkersFreshDictionarySharded) {
  RunKillResumeCase({4, false, 2});
}

TEST(KillResumeTest, ResumeAdoptsTheSnapshotsDetectorConfig) {
  // A checkpoint written at δ=120 resumed by a session configured with a
  // different δ must adopt the snapshot's configuration (a mismatched δ
  // would break the pending partial quantum or silently cut
  // different-sized quanta against state built at the old size).
  const stream::SyntheticTrace trace = SmallTrace();
  const detect::DetectorConfig detector_config = SmallDetectorConfig();
  std::stringstream text;
  ASSERT_TRUE(WriteJsonl(trace, text));
  const std::string content = text.str();
  const std::map<QuantumIndex, std::uint64_t> want = ReferenceDigests(
      trace.messages, trace.dictionary, detector_config);

  IngestConfig ingest_config;
  ingest_config.workers = 2;
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = detector_config;
  engine_config.threads = 1;
  DurableConfig durable;
  durable.directory = TempDir("delta_mismatch");
  durable.checkpoint_quanta = 3;
  durable.full_interval = 2;

  std::map<QuantumIndex, std::uint64_t> before;
  {
    DurableIngest session(ingest_config, engine_config, durable);
    session.dictionary().SeedFrom(trace.dictionary);
    std::stringstream stream1(content);
    JsonlSource inner(stream1);
    LimitedSource source(inner, 4'700);
    ASSERT_TRUE(session
                    .Run(
                        source,
                        [&](const detect::QuantumReport& report) {
                          before[report.quantum] =
                              detect::ReportDigest(report);
                        },
                        /*flush_partial=*/false)
                    .has_value());
  }

  engine::ParallelDetectorConfig skewed = engine_config;
  skewed.detector.quantum_size = 64;  // operator "forgot" --delta
  DurableIngest session(ingest_config, skewed, durable);
  const ResumeResult resume = session.Resume();
  ASSERT_EQ(resume.outcome, ResumeResult::Outcome::kResumed)
      << resume.detail;

  std::map<QuantumIndex, std::uint64_t> after;
  std::stringstream stream2(content);
  JsonlSource source2(stream2);
  ASSERT_TRUE(session
                  .Run(source2,
                       [&](const detect::QuantumReport& report) {
                         after[report.quantum] =
                             detect::ReportDigest(report);
                       })
                  .has_value());
  std::map<QuantumIndex, std::uint64_t> stitched;
  for (const auto& [quantum, digest] : before) {
    if (quantum < resume.next_quantum) stitched[quantum] = digest;
  }
  stitched.insert(after.begin(), after.end());
  EXPECT_EQ(stitched, want);
}

TEST(KillResumeTest, FreshSessionContinuesOrdinalsAboveStaleFiles) {
  // A fresh (non-resume) deployment pointed at a directory still holding
  // an abandoned deployment's checkpoints must write *newer* ordinals —
  // otherwise a later --resume would restore the stale higher-ordinal
  // checkpoint over the fresh deployment's.
  const stream::SyntheticTrace trace = SmallTrace();
  std::stringstream text;
  ASSERT_TRUE(WriteJsonl(trace, text));
  const std::string content = text.str();

  IngestConfig ingest_config;
  ingest_config.workers = 1;
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = SmallDetectorConfig();
  engine_config.threads = 1;
  DurableConfig durable;
  durable.directory = TempDir("stale_generation");
  durable.checkpoint_quanta = 3;
  durable.full_interval = 2;

  {  // Abandoned deployment A: reads deep into the stream.
    DurableIngest session(ingest_config, engine_config, durable);
    std::stringstream stream1(content);
    JsonlSource inner(stream1);
    LimitedSource source(inner, 4'700);
    ASSERT_TRUE(
        session.Run(source, nullptr, /*flush_partial=*/false).has_value());
  }
  {  // Fresh deployment B, same directory, no Resume(): a short stream.
    DurableIngest session(ingest_config, engine_config, durable);
    std::stringstream stream2(content);
    JsonlSource inner(stream2);
    LimitedSource source(inner, 1'500);
    ASSERT_TRUE(
        session.Run(source, nullptr, /*flush_partial=*/false).has_value());
  }

  // Resume restores B's latest fence (record <= 1500), not A's.
  DurableIngest session(ingest_config, engine_config, durable);
  const ResumeResult resume = session.Resume();
  ASSERT_EQ(resume.outcome, ResumeResult::Outcome::kResumed)
      << resume.detail;
  EXPECT_LE(resume.cursor.record_index, 1'500u);
  EXPECT_GT(resume.cursor.record_index, 0u);
}

// ------------------------------------- Version skew + PR 2-era reads ----

// A one-thread engine with some real state to snapshot.
std::unique_ptr<engine::ParallelDetector> WarmDetector(
    const stream::SyntheticTrace& trace,
    const detect::DetectorConfig& config) {
  auto detector = std::make_unique<engine::ParallelDetector>(
      engine::ParallelDetectorConfig{config, 1}, &trace.dictionary);
  for (const stream::Quantum& quantum : stream::SplitIntoQuanta(
           trace.messages, config.quantum_size, /*keep_partial=*/false)) {
    detector->ProcessQuantum(quantum);
    if (quantum.index >= 20) break;
  }
  return detector;
}

// Rewrites a current (version-4, unweighted) bare full frame as the
// byte-exact legacy encoding `version` wrote: version 4 appended the
// weighted-Min-Hash flag at config offset 62, so dropping that byte and
// refreshing the header's version, length and payload-CRC fields
// reproduces what the version 2/3 serializers emitted (without an
// IngestState section the two legacy payloads are identical).
std::string AsLegacyVersion(std::string bytes, std::uint8_t version) {
  constexpr std::size_t kHeaderSize = 25;
  constexpr std::size_t kWeightedFlagOffset = kHeaderSize + 62;
  EXPECT_EQ(bytes[kWeightedFlagOffset], 0) << "fixture must be unweighted";
  bytes.erase(kWeightedFlagOffset, 1);
  bytes[8] = static_cast<char>(version);
  std::uint64_t length = 0;
  for (int i = 7; i >= 0; --i) {
    length = (length << 8) | static_cast<unsigned char>(bytes[13 + i]);
  }
  --length;
  for (int i = 0; i < 8; ++i) {
    bytes[13 + i] = static_cast<char>(length >> (8 * i));
  }
  const std::uint32_t crc =
      Crc32(std::string_view(bytes).substr(kHeaderSize));
  for (int i = 0; i < 4; ++i) {
    bytes[21 + i] = static_cast<char>(crc >> (8 * i));
  }
  return bytes;
}

// The typed reason LoadEngineSnapshot gives for `in` (kNone on success).
durability::ErrorCode LoadErrorOf(std::istream& in,
                                  const text::KeywordDictionary& dictionary) {
  durability::Error error;
  const auto engine =
      durability::LoadEngineSnapshot(in, &dictionary, 1, nullptr, &error);
  EXPECT_EQ(engine == nullptr, !error.ok());
  return error.code;
}

TEST(SnapshotCompatTest, Pr2EraVersion2SnapshotRestoresABareDetector) {
  const stream::SyntheticTrace trace = SmallTrace(41);
  const detect::DetectorConfig config = SmallDetectorConfig();
  const auto detector = WarmDetector(trace, config);

  // A bare save (no IngestState section) rewritten to the legacy encoding
  // is byte-for-byte what PR 2 (version 2) and the pre-weighted era
  // (version 3) wrote; both must restore a bare engine.
  std::stringstream out;
  ASSERT_TRUE(durability::SaveSnapshot(*detector, out).ok());
  ASSERT_EQ(out.str()[8], 4);

  for (const std::uint8_t version : {std::uint8_t{2}, std::uint8_t{3}}) {
    std::stringstream in(AsLegacyVersion(out.str(), version));
    durability::Error error =
        durability::MakeError(durability::ErrorCode::kCorrupt, "unset");
    sio::IngestState ingest;
    bool ingest_present = true;
    const auto restored = durability::LoadEngineSnapshot(
        in, &trace.dictionary, 1, nullptr, &error, &ingest,
        &ingest_present);
    ASSERT_NE(restored, nullptr) << "version " << int(version);
    EXPECT_TRUE(error.ok());
    EXPECT_FALSE(ingest_present);
    EXPECT_EQ(restored->next_quantum_index(),
              detector->next_quantum_index());
  }
}

TEST(SnapshotCompatTest, VersionSkewIsTypedNotGenericFailure) {
  const stream::SyntheticTrace trace = SmallTrace(41);
  const auto detector = WarmDetector(trace, SmallDetectorConfig());
  std::stringstream out;
  ASSERT_TRUE(durability::SaveSnapshot(*detector, out).ok());

  for (const char version : {char(1), char(sio::kFormatVersion + 1)}) {
    std::string bytes = out.str();
    bytes[8] = version;
    std::stringstream in(bytes);
    EXPECT_EQ(LoadErrorOf(in, trace.dictionary),
              durability::ErrorCode::kVersionSkew)
        << "version " << int(version);
  }
}

TEST(SnapshotCompatTest, TypedErrorsDistinguishFailureModes) {
  const stream::SyntheticTrace trace = SmallTrace(43);
  const detect::DetectorConfig config = SmallDetectorConfig();
  const auto detector = WarmDetector(trace, config);
  std::stringstream out;
  ASSERT_TRUE(durability::SaveSnapshot(*detector, out).ok());
  const std::string bytes = out.str();

  {  // Missing file -> kIo.
    std::ifstream in("/nonexistent/path.ckpt", std::ios::binary);
    EXPECT_EQ(LoadErrorOf(in, trace.dictionary), durability::ErrorCode::kIo);
  }
  {  // Not a snapshot -> kBadMagic.
    std::stringstream in("this is not a checkpoint, it is a sandwich");
    EXPECT_EQ(LoadErrorOf(in, trace.dictionary),
              durability::ErrorCode::kBadMagic);
  }
  {  // Payload bit flip -> kCorrupt.
    std::string corrupt = bytes;
    corrupt[100] = static_cast<char>(corrupt[100] ^ 0x40);
    std::stringstream in(corrupt);
    EXPECT_EQ(LoadErrorOf(in, trace.dictionary),
              durability::ErrorCode::kCorrupt);
  }
}

// ------------------------------------------------- Dictionary codec -----

TEST(DictionaryStateTest, RoundTripPreservesIdsAndNounFlags) {
  text::KeywordDictionary dictionary;
  const KeywordId quake = dictionary.Intern("earthquake");
  const KeywordId the = dictionary.Intern("the");
  dictionary.SetNoun(quake, true);
  dictionary.SetNoun(the, false);

  BinaryWriter out;
  dictionary.SaveState(out);
  BinaryReader in(out.data());
  text::KeywordDictionary restored;
  ASSERT_TRUE(restored.RestoreState(in));
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.Lookup("earthquake"), quake);
  EXPECT_EQ(restored.Lookup("the"), the);
  EXPECT_TRUE(restored.IsNoun(quake));
  EXPECT_FALSE(restored.IsNoun(the));
}

TEST(DictionaryStateTest, RejectsDuplicatesNonEmptyTargetsAndGarbage) {
  text::KeywordDictionary dictionary;
  dictionary.Intern("alpha");

  {  // Restore into a non-empty dictionary is refused.
    BinaryWriter out;
    dictionary.SaveState(out);
    BinaryReader in(out.data());
    text::KeywordDictionary target;
    target.Intern("occupied");
    EXPECT_FALSE(target.RestoreState(in));
    EXPECT_EQ(target.size(), 1u);
  }
  {  // Duplicate spellings would silently shift every later id.
    BinaryWriter out;
    out.U64(2);
    for (int i = 0; i < 2; ++i) {
      out.U32(4);
      out.Bytes("same", 4);
      out.U8(0);
    }
    BinaryReader in(out.data());
    text::KeywordDictionary target;
    EXPECT_FALSE(target.RestoreState(in));
  }
  {  // Forged count cannot drive allocation.
    BinaryWriter out;
    out.U64(0xFFFF'FFFF'FFFFull);
    BinaryReader in(out.data());
    text::KeywordDictionary target;
    EXPECT_FALSE(target.RestoreState(in));
  }
}

}  // namespace
}  // namespace scprt::ingest
