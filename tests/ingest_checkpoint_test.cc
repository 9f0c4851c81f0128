// Checkpoint-aware ingest: source cursors, durable-session kill/resume
// equivalence (the headline property — a pipeline checkpointed mid-stream,
// its process state discarded, resumed from the WAL + source cursor emits
// report digests bit-identical to a never-interrupted run, at 1 and 4
// tokenizer workers, seeded and fresh-dictionary), the stream counts every
// commit persists (records read and shed up to the saved cursor, never the
// driver's read-ahead), PR 2-era snapshot compatibility (no IngestState
// section), typed load errors, and the dictionary blob codec.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "detect/detector.h"
#include "detect/report.h"
#include "detect/snapshot_io.h"
#include "durability/backend.h"
#include "durability/file_names.h"
#include "durability/wal_backend.h"
#include "durability/wal_record.h"
#include "engine/parallel_detector.h"
#include "ingest/durable.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "ingest/text_export.h"
#include "obs/registry.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "text/concurrent_dictionary.h"

namespace scprt::ingest {
namespace {

namespace fs = std::filesystem;
namespace sio = detect::snapshot_io;

stream::SyntheticConfig SmallTraceConfig(std::uint64_t seed) {
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
  return config;
}

stream::SyntheticTrace SmallTrace(std::uint64_t seed = 29) {
  return GenerateSyntheticTrace(SmallTraceConfig(seed));
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

// Per-quantum digests of the pre-tokenized trace path (the ground truth
// both the interrupted and uninterrupted ingest runs must match).
std::map<QuantumIndex, std::uint64_t> ReferenceDigests(
    const std::vector<stream::Message>& messages,
    const text::KeywordDictionary& dictionary,
    const detect::DetectorConfig& config) {
  engine::ParallelDetector detector({config}, &dictionary);
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

TEST(SourceCursorTest, GeneratorSourceSeeksByIndex) {
  GeneratorSource source(SmallTraceConfig(37));
  const stream::SyntheticTrace& trace = source.trace();
  EXPECT_TRUE(source.seekable());
  RawRecord record;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(source.Position().record_index, 10u);
  ASSERT_TRUE(source.Seek(SourcePosition{3, 3}));
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record.user, trace.messages[3].user);
  EXPECT_EQ(record.event_id, trace.messages[3].event_id);
  EXPECT_EQ(record.text,
            RenderMessageText(trace.messages[3], trace.dictionary));
  EXPECT_EQ(source.Position().record_index, 4u);
  EXPECT_FALSE(
      source.Seek(SourcePosition{trace.messages.size() + 1, 0}));
}

// --------------------------------------------- Kill/resume equivalence --

struct KillResumeCase {
  std::size_t workers;
  bool seeded;
};

void RunKillResumeCase(const KillResumeCase& c) {
  SCOPED_TRACE(::testing::Message()
               << "workers=" << c.workers << " seeded=" << c.seeded);
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
  DurableConfig durable;
  durable.directory = TempDir("kill_resume_" + std::to_string(c.workers) +
                              (c.seeded ? "_seeded" : "_fresh"));
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
  // The resume cost is exported by the registry, not by a second schema.
  EXPECT_EQ(obs::Registry::Default().SnapshotAll().GaugeValue(
                "ingest.recovery_seconds"),
            snapshot->recovery_seconds);

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
// bit-identical at 1 and 4 workers, seeded and fresh.
TEST(KillResumeTest, WalOneWorkerSeeded) { RunKillResumeCase({1, true}); }

TEST(KillResumeTest, WalFourWorkersSeeded) { RunKillResumeCase({4, true}); }

TEST(KillResumeTest, WalOneWorkerFreshDictionary) {
  RunKillResumeCase({1, false});
}

TEST(KillResumeTest, WalFourWorkersFreshDictionary) {
  RunKillResumeCase({4, false});
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

// ------------------------------------ Persisted counts at the fence ----

// Every IngestState a WAL directory holds, in commit order: segments and
// log records by file number (one monotonic sequence), each log's records
// in append order.
std::vector<sio::IngestState> PersistedStates(const std::string& directory) {
  std::map<std::uint64_t, fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t number = 0;
    if (durability::ParseSegmentFileName(name, number) ||
        durability::ParseWalFileName(name, number)) {
      files[number] = entry.path();
    }
  }
  std::vector<sio::IngestState> states;
  for (const auto& [number, path] : files) {
    std::ifstream in(path, std::ios::binary);
    if (path.extension() == ".snap") {
      sio::IngestState state;
      bool present = false;
      EXPECT_NE(durability::LoadEngineSnapshot(in, nullptr, 1, nullptr,
                                               nullptr, &state, &present),
                nullptr)
          << path;
      EXPECT_TRUE(present) << path;
      states.push_back(std::move(state));
      continue;
    }
    std::stringstream contents;
    contents << in.rdbuf();
    durability::LogReader reader(contents.str());
    std::string_view payload;
    while (reader.ReadRecord(payload)) {
      durability::WalRecord record;
      EXPECT_TRUE(durability::DecodeWalRecord(payload, record)) << path;
      states.push_back(std::move(record.state));
    }
    EXPECT_EQ(reader.why_stopped(), "") << path;
  }
  return states;
}

// The bytes of every segment and log file in `directory`, by name.
std::map<std::string, std::string> DurableFileBytes(
    const std::string& directory) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t number = 0;
    if (durability::ParseSegmentFileName(name, number) ||
        durability::ParseWalFileName(name, number)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::stringstream contents;
      contents << in.rdbuf();
      files[name] = contents.str();
    }
  }
  return files;
}

TEST(DurableCountsTest, CommitsPersistCountsAtTheCursor) {
  // One tokenizer worker behind a 64-record queue: the driver reads well
  // ahead of the record that closes each quantum. What a commit persists
  // must still be the counts up to its cursor — so two identical runs
  // write identical bytes, and a resume (which re-reads from the cursor)
  // does not count the read-ahead twice.
  const stream::SyntheticTrace trace = SmallTrace();
  std::stringstream text;
  ASSERT_TRUE(WriteJsonl(trace, text));
  const std::string content = text.str();

  IngestConfig ingest_config;
  ingest_config.workers = 1;
  ingest_config.queue_capacity = 64;
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = SmallDetectorConfig();
  DurableConfig durable;
  durable.checkpoint_quanta = 4;
  durable.full_interval = 5;  // a segment every 20 quanta, records between

  const auto run_uninterrupted = [&](const std::string& name) {
    DurableConfig config = durable;
    config.directory = TempDir(name);
    DurableIngest session(ingest_config, engine_config, config);
    std::stringstream stream(content);
    JsonlSource source(stream);
    EXPECT_TRUE(session.Run(source, nullptr).has_value());
    return config.directory;
  };
  const std::string first = run_uninterrupted("counts_first");
  const std::string second = run_uninterrupted("counts_second");

  const std::vector<sio::IngestState> states = PersistedStates(first);
  ASSERT_GT(states.size(), 10u);
  for (const sio::IngestState& state : states) {
    EXPECT_EQ(state.records_read, state.cursor_record)
        << "commit at record " << state.cursor_record;
    EXPECT_EQ(state.shed, 0u);
  }
  EXPECT_EQ(states.back().records_read, trace.messages.size());
  EXPECT_EQ(DurableFileBytes(first), DurableFileBytes(second))
      << "identical runs wrote different durable bytes";

  // Kill mid-stream, resume from the directory, finish the stream.
  DurableConfig config = durable;
  config.directory = TempDir("counts_resumed");
  {
    DurableIngest session(ingest_config, engine_config, config);
    std::stringstream stream(content);
    JsonlSource inner(stream);
    LimitedSource source(inner, 4'700);
    ASSERT_TRUE(
        session.Run(source, nullptr, /*flush_partial=*/false).has_value());
  }
  DurableIngest session(ingest_config, engine_config, config);
  ASSERT_EQ(session.Resume().outcome, ResumeResult::Outcome::kResumed);
  std::stringstream stream(content);
  JsonlSource source(stream);
  ASSERT_TRUE(session.Run(source, nullptr).has_value());

  const std::vector<sio::IngestState> resumed =
      PersistedStates(config.directory);
  ASSERT_FALSE(resumed.empty());
  for (const sio::IngestState& state : resumed) {
    EXPECT_EQ(state.records_read, state.cursor_record)
        << "commit at record " << state.cursor_record;
  }
  EXPECT_EQ(resumed.back().records_read, states.back().records_read);
}

// Pads every message text with stop words: the same keywords reach the
// engine, but each record costs a tokenizer worker several times what the
// driver spends reading it.
std::string PadWithStopWords(const std::string& jsonl) {
  const std::string key = "\"text\": \"";
  std::string filler;
  for (int i = 0; i < 20; ++i) filler += "the ";
  std::string padded;
  std::size_t from = 0;
  for (std::size_t at = jsonl.find(key); at != std::string::npos;
       at = jsonl.find(key, from)) {
    padded.append(jsonl, from, at + key.size() - from);
    padded += filler;
    from = at + key.size();
  }
  padded.append(jsonl, from);
  return padded;
}

// Hands records over in bursts of kBurst with a pause between bursts: a
// burst overflows a staging queue shorter than it (so drop-tail sheds),
// and the pause lets the worker drain the queue even when it shares a
// core with the driver (so most records still get through).
class BurstySource : public MessageSource {
 public:
  static constexpr std::uint64_t kBurst = 8;

  explicit BurstySource(MessageSource& inner) : inner_(&inner) {}

  bool Next(RawRecord& out) override {
    if (++handed_ % kBurst == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return inner_->Next(out);
  }
  std::uint64_t malformed_count() const override {
    return inner_->malformed_count();
  }
  SourcePosition Position() const override { return inner_->Position(); }
  bool seekable() const override { return inner_->seekable(); }
  bool Seek(const SourcePosition& position) override {
    return inner_->Seek(position);
  }

 private:
  MessageSource* inner_;
  std::uint64_t handed_ = 0;
};

TEST(DurableCountsTest, ShedCountsStopAtTheCursor) {
  // Drop-tail behind a 4-record queue sheds part of each burst, and the
  // driver reads past the record that closes each quantum. A commit must count the
  // records read and shed up to its cursor only: then every record up to
  // the cursor is either a message the engine has (next_seq of them) or
  // shed. Which records are shed depends on thread timing, so two runs
  // (or a killed-and-resumed run) need not shed the same ones; the
  // invariant holds at every commit of each.
  const stream::SyntheticTrace trace = SmallTrace();
  std::stringstream text;
  ASSERT_TRUE(WriteJsonl(trace, text));
  const std::string content = PadWithStopWords(text.str());

  IngestConfig ingest_config;
  ingest_config.workers = 1;
  ingest_config.queue_capacity = 4;
  ingest_config.admission.policy = OverloadPolicy::kDropTail;
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = SmallDetectorConfig();
  DurableConfig durable;
  durable.checkpoint_quanta = 2;
  durable.full_interval = 5;

  const auto expect_counts_at_cursor =
      [](const std::vector<sio::IngestState>& states) {
        for (const sio::IngestState& state : states) {
          EXPECT_EQ(state.records_read, state.cursor_record)
              << "commit at record " << state.cursor_record;
          EXPECT_EQ(state.records_read - state.shed, state.next_seq)
              << "commit at record " << state.cursor_record;
        }
      };

  DurableConfig config = durable;
  config.directory = TempDir("shed_counts");
  {
    DurableIngest session(ingest_config, engine_config, config);
    std::stringstream stream(content);
    JsonlSource inner(stream);
    BurstySource source(inner);
    ASSERT_TRUE(session.Run(source, nullptr).has_value());
  }
  const std::vector<sio::IngestState> states =
      PersistedStates(config.directory);
  ASSERT_GE(states.size(), 5u);
  ASSERT_GT(states.back().shed, 0u) << "the queue never overflowed";
  expect_counts_at_cursor(states);

  // Kill mid-stream and resume: the resumed commits continue the counts
  // from the restored fence without counting the read-ahead again.
  config.directory = TempDir("shed_counts_resumed");
  {
    DurableIngest session(ingest_config, engine_config, config);
    std::stringstream stream(content);
    JsonlSource inner(stream);
    LimitedSource limited(inner, 4'700);
    BurstySource source(limited);
    ASSERT_TRUE(
        session.Run(source, nullptr, /*flush_partial=*/false).has_value());
  }
  const std::vector<sio::IngestState> killed =
      PersistedStates(config.directory);
  ASSERT_FALSE(killed.empty());
  DurableIngest session(ingest_config, engine_config, config);
  ASSERT_EQ(session.Resume().outcome, ResumeResult::Outcome::kResumed);
  std::stringstream stream(content);
  JsonlSource inner(stream);
  BurstySource source(inner);
  ASSERT_TRUE(session.Run(source, nullptr).has_value());

  // (Older generations may be pruned by now, so compare the last states.)
  const std::vector<sio::IngestState> resumed =
      PersistedStates(config.directory);
  ASSERT_FALSE(resumed.empty());
  expect_counts_at_cursor(resumed);
  EXPECT_GE(resumed.back().shed, killed.back().shed);
  // Records shed after the last admitted one lie past the final cursor.
  EXPECT_GT(resumed.back().records_read, killed.back().records_read);
  EXPECT_LE(resumed.back().records_read, trace.messages.size());
}

// ------------------------------------- Version skew + PR 2-era reads ----

// An engine with some real state to snapshot.
std::unique_ptr<engine::ParallelDetector> WarmDetector(
    const stream::SyntheticTrace& trace,
    const detect::DetectorConfig& config) {
  auto detector = std::make_unique<engine::ParallelDetector>(
      engine::ParallelDetectorConfig{config}, &trace.dictionary);
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
