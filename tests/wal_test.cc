// The log-structured durability tier: block/fragment log framing round
// trips, the torn-tail fuzz battery (truncated block, bit-flipped CRC,
// torn final fragment, forged length), the file-name codecs, the
// crash-point matrix — directory states a crash can leave between
// append, fsync, segment rename and GC, each of which a WalBackend-driven
// ingest session must resume from with a report stream bit-identical to a
// never-interrupted run's — the segment as commit point (a log that
// cannot be opened), randomized damage to the newest generations,
// hostile log records behind valid CRCs (the record-level acceptance
// rules), and the refusal to start fresh over a retired snapshot-backend
// directory.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "detect/report.h"
#include "detect/snapshot_io.h"
#include "durability/backend.h"
#include "durability/file_names.h"
#include "durability/log_format.h"
#include "durability/log_reader.h"
#include "durability/log_writer.h"
#include "durability/posix_file.h"
#include "durability/wal_backend.h"
#include "engine/parallel_detector.h"
#include "ingest/durable.h"
#include "ingest/source.h"
#include "ingest/text_export.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "wal_harness.h"

namespace scprt::durability {
namespace {

namespace fs = std::filesystem;
namespace sio = detect::snapshot_io;

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------- Log framing --------

// Writes `records` through the real file layer and returns the log bytes.
std::string WriteLog(const std::string& dir,
                     const std::vector<std::string>& records) {
  const std::string path = (fs::path(dir) / "test.log").string();
  auto file = AppendFile::Open(path);
  EXPECT_NE(file, nullptr);
  LogWriter writer(file.get());
  for (const std::string& record : records) {
    EXPECT_TRUE(writer.AddRecord(record));
  }
  EXPECT_TRUE(file->Flush());
  std::string contents;
  EXPECT_TRUE(ReadFileToString(path, contents));
  return contents;
}

// A payload with position-dependent bytes, so reassembly glitches (a
// fragment dropped, reordered or double-applied) cannot cancel out.
std::string Patterned(std::size_t n, std::uint8_t salt = 0) {
  std::string payload(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<char>((i * 131 + salt) % 251);
  }
  return payload;
}

TEST(LogFormatTest, RoundTripsSmallEmptyAndMultiBlockRecords) {
  const std::string dir = TempDir("wal_roundtrip");
  const std::vector<std::string> records = {
      "", "x", Patterned(100, 1), Patterned(3 * log::kBlockSize + 123, 2),
      Patterned(log::kBlockSize, 3)};
  LogReader reader(WriteLog(dir, records));

  std::string payload;
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(reader.ReadRecord(payload)) << "record " << i;
    EXPECT_EQ(payload, records[i]) << "record " << i;
  }
  EXPECT_FALSE(reader.ReadRecord(payload));
  EXPECT_EQ(reader.why_stopped(), "");  // clean end, not damage
  EXPECT_EQ(reader.records_read(), records.size());
}

TEST(LogFormatTest, ZeroFilledBlockTrailerIsSkippedNotParsed) {
  // First record sized so the block trailer (6 bytes) is too small for a
  // header: the writer zero-fills it and the second record starts in the
  // next block. The reader must treat the trailer as padding, not as a
  // truncated fragment.
  const std::string dir = TempDir("wal_trailer");
  const std::vector<std::string> records = {
      Patterned(log::kBlockSize - log::kHeaderSize - 6, 4), Patterned(50, 5)};
  const std::string contents = WriteLog(dir, records);
  ASSERT_EQ(contents.size(),
            log::kBlockSize + log::kHeaderSize + 50);  // trailer zero-filled

  LogReader reader(contents);
  std::string payload;
  ASSERT_TRUE(reader.ReadRecord(payload));
  EXPECT_EQ(payload, records[0]);
  ASSERT_TRUE(reader.ReadRecord(payload));
  EXPECT_EQ(payload, records[1]);
  EXPECT_FALSE(reader.ReadRecord(payload));
  EXPECT_EQ(reader.why_stopped(), "");
}

// ------------------------------------------------- Torn-tail battery -----

TEST(LogReaderFuzzTest, TruncationInsideARecordYieldsThePrefix) {
  const std::string dir = TempDir("wal_truncated");
  const std::vector<std::string> records = {
      Patterned(100, 1), Patterned(100, 2), Patterned(100, 3)};
  std::string contents = WriteLog(dir, records);
  // Cut into the third record's payload: that append never completed, so
  // the first two records are the newest consistent prefix and the cut is
  // a clean (crash-shaped) end, not damage.
  contents.resize(2 * (log::kHeaderSize + 100) + 40);

  LogReader reader(contents);
  std::string payload;
  ASSERT_TRUE(reader.ReadRecord(payload));
  EXPECT_EQ(payload, records[0]);
  ASSERT_TRUE(reader.ReadRecord(payload));
  EXPECT_EQ(payload, records[1]);
  EXPECT_FALSE(reader.ReadRecord(payload));
  EXPECT_EQ(reader.why_stopped(), "");
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(LogReaderFuzzTest, BitFlippedPayloadStopsAtTheChecksum) {
  const std::string dir = TempDir("wal_bitflip");
  const std::vector<std::string> records = {
      Patterned(100, 1), Patterned(100, 2), Patterned(100, 3)};
  std::string contents = WriteLog(dir, records);
  // Flip one bit in the second record's payload.
  const std::size_t victim = (log::kHeaderSize + 100) + log::kHeaderSize + 13;
  contents[victim] = static_cast<char>(contents[victim] ^ 0x20);

  LogReader reader(contents);
  std::string payload;
  ASSERT_TRUE(reader.ReadRecord(payload));
  EXPECT_EQ(payload, records[0]);
  EXPECT_FALSE(reader.ReadRecord(payload));
  EXPECT_EQ(reader.why_stopped(), "fragment checksum mismatch");
  EXPECT_EQ(reader.records_read(), 1u);
}

TEST(LogReaderFuzzTest, TornFinalFragmentIsReportedAsATornTail) {
  const std::string dir = TempDir("wal_torn");
  const std::vector<std::string> records = {
      Patterned(100, 1), Patterned(3 * log::kBlockSize, 2)};
  std::string contents = WriteLog(dir, records);
  // Cut inside the big record's middle fragments: a fragment sequence
  // started (kFirst landed) but never finished — distinguishable from the
  // clean truncation above.
  contents.resize(2 * log::kBlockSize - 17);

  LogReader reader(contents);
  std::string payload;
  ASSERT_TRUE(reader.ReadRecord(payload));
  EXPECT_EQ(payload, records[0]);
  EXPECT_FALSE(reader.ReadRecord(payload));
  EXPECT_EQ(reader.why_stopped(),
            "log ends inside a fragmented record (torn tail)");
}

TEST(LogReaderFuzzTest, ForgedLengthCannotEscapeItsBlock) {
  // Hand-craft a header whose length field points past the block: the
  // reader must refuse before trusting a single payload byte (a forged
  // length must never drive a read past the block, let alone allocation).
  std::string contents(log::kHeaderSize, '\0');
  contents[0] = 0x12;  // CRC bytes — never reached
  contents[4] = static_cast<char>(0xFF);
  contents[5] = static_cast<char>(0x7F);  // length 0x7FFF > block capacity
  contents[6] = log::kFullRecord;
  contents += Patterned(100, 6);

  LogReader reader(contents);
  std::string payload;
  EXPECT_FALSE(reader.ReadRecord(payload));
  EXPECT_EQ(reader.why_stopped(), "fragment length overruns its block");
  EXPECT_EQ(reader.records_read(), 0u);
}

TEST(LogReaderFuzzTest, UnknownFragmentTypeAndBrokenSequencingStop) {
  {  // Type byte beyond kLast.
    std::string contents(log::kHeaderSize, '\0');
    contents[6] = 9;
    LogReader reader(contents);
    std::string payload;
    EXPECT_FALSE(reader.ReadRecord(payload));
    EXPECT_EQ(reader.why_stopped(), "unknown fragment type 9");
  }
  {  // A middle fragment with no first: out-of-sequence, not padding.
    const std::string dir = TempDir("wal_sequencing");
    std::string contents =
        WriteLog(dir, {Patterned(3 * log::kBlockSize, 7)});
    // Drop the first block wholesale: replay now starts at a kMiddle.
    contents.erase(0, log::kBlockSize);
    LogReader reader(contents);
    std::string payload;
    EXPECT_FALSE(reader.ReadRecord(payload));
    EXPECT_EQ(reader.why_stopped(), "middle fragment without a first");
  }
}

// ------------------------------------------------------ File names -------

TEST(FileNamesTest, CodecsRoundTripAndRejectForeignNames) {
  EXPECT_EQ(SegmentFileName(7), "seg-000007.snap");
  EXPECT_EQ(WalFileName(42), "wal-000042.log");

  std::uint64_t number = 0;
  EXPECT_TRUE(ParseSegmentFileName("seg-000007.snap", number));
  EXPECT_EQ(number, 7u);
  EXPECT_TRUE(ParseWalFileName("wal-1000001.log", number));
  EXPECT_EQ(number, 1'000'001u);

  // Partial matches, the retired snapshot backend's files and older
  // builds' manifest files must not parse.
  EXPECT_FALSE(ParseSegmentFileName("seg-000007.snap.tmp", number));
  EXPECT_FALSE(ParseSegmentFileName("full-000007.ckpt", number));
  EXPECT_FALSE(ParseWalFileName("wal-.log", number));
  EXPECT_FALSE(ParseSegmentFileName("MANIFEST-000003", number));
  EXPECT_FALSE(ParseWalFileName("MANIFEST-000003", number));
}

// --------------------------------------------- Crash-point matrix --------

stream::SyntheticTrace CrashTrace() {
  stream::SyntheticConfig config;
  config.seed = 53;
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

// Largest-numbered file whose name starts with `prefix` (the newest
// generation's segment or log).
fs::path NewestFile(const std::string& dir, const std::string& prefix) {
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 &&
        (newest.empty() || name > newest.filename().string())) {
      newest = entry.path();
    }
  }
  return newest;
}

// Runs a WAL-backed ingest session 4,700 records deep, discards the
// process, applies `damage` to the durability directory (the state a
// crash at some protocol step leaves behind), then resumes and replays
// the full stream. Whatever the damage cost, the stitched report stream
// must stay bit-identical to the never-interrupted reference — damage may
// only age the recovery fence, never corrupt the state recovered from it.
// The resume must report `expected_error` (kNone: no error) and a detail
// trail containing each of `detail_contains`.
void RunCrashPointCase(const std::string& tag,
                       const std::function<void(const std::string&)>& damage,
                       ErrorCode expected_error,
                       const std::vector<std::string>& detail_contains = {}) {
  SCOPED_TRACE(tag);
  const stream::SyntheticTrace trace = CrashTrace();
  detect::DetectorConfig detector_config;
  detector_config.quantum_size = 120;
  std::stringstream text;
  ASSERT_TRUE(ingest::WriteJsonl(trace, text));
  const std::string content = text.str();

  std::map<QuantumIndex, std::uint64_t> want;
  {
    engine::ParallelDetector reference({detector_config},
                                       &trace.dictionary);
    for (const stream::Quantum& quantum : stream::SplitIntoQuanta(
             trace.messages, detector_config.quantum_size,
             /*keep_partial=*/true)) {
      want[quantum.index] =
          detect::ReportDigest(reference.ProcessQuantum(quantum));
    }
  }

  ingest::IngestConfig ingest_config;
  ingest_config.workers = 1;
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = detector_config;
  ingest::DurableConfig durable;
  durable.directory = TempDir("wal_crash_" + tag);
  durable.checkpoint_quanta = 3;
  durable.full_interval = 2;  // a generation every 6 quanta

  std::map<QuantumIndex, std::uint64_t> before;
  {
    ingest::DurableIngest session(ingest_config, engine_config, durable);
    session.dictionary().SeedFrom(trace.dictionary);
    std::stringstream stream1(content);
    ingest::JsonlSource inner(stream1);
    ingest::LimitedSource source(inner, 4'700);
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

  damage(durable.directory);

  ingest::DurableIngest session(ingest_config, engine_config, durable);
  const ingest::ResumeResult resume = session.Resume();
  ASSERT_EQ(resume.outcome, ingest::ResumeResult::Outcome::kResumed)
      << resume.detail;
  EXPECT_EQ(resume.error.code, expected_error) << resume.error.ToString();
  for (const std::string& part : detail_contains) {
    EXPECT_NE(resume.detail.find(part), std::string::npos)
        << "detail trail lacks \"" << part << "\": " << resume.detail;
  }

  std::map<QuantumIndex, std::uint64_t> after;
  std::stringstream stream2(content);
  ingest::JsonlSource source2(stream2);
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

TEST(WalCrashPointTest, CleanKillReplaysTheWalTail) {
  // No damage at all: the baseline crash (process killed between commits)
  // must recover the full WAL prefix with no error.
  RunCrashPointCase(
      "clean", [](const std::string&) {}, ErrorCode::kNone);
}

TEST(WalCrashPointTest, TornWalTailAgesTheFenceOnly) {
  // Crash between append and flush: the last record is half-written. The
  // replay stops at the newest consistent prefix — and since a torn final
  // append is exactly what a crash leaves behind, it reads as a clean
  // end, not as damage (no typed error).
  RunCrashPointCase(
      "torn_tail",
      [](const std::string& dir) {
        const fs::path wal = NewestFile(dir, "wal-");
        ASSERT_FALSE(wal.empty());
        ASSERT_GT(fs::file_size(wal), 80u);
        fs::resize_file(wal, fs::file_size(wal) - 67);
      },
      ErrorCode::kNone);
}

TEST(WalCrashPointTest, BitFlippedWalRecordStopsReplayAtThePrefix) {
  // Damage *inside* the log (not a torn tail) is a typed, surfaced fact.
  RunCrashPointCase(
      "bitflip",
      [](const std::string& dir) {
        const fs::path wal = NewestFile(dir, "wal-");
        ASSERT_FALSE(wal.empty());
        std::fstream file(wal,
                          std::ios::in | std::ios::out | std::ios::binary);
        char byte = 0;
        file.seekg(200).read(&byte, 1);  // inside the first record
        byte = static_cast<char>(byte ^ 0x10);
        file.seekp(200).write(&byte, 1);
      },
      ErrorCode::kCorrupt, {"fragment checksum mismatch"});
}

TEST(WalCrashPointTest, MissingWalRecoversTheSegmentAlone) {
  // Crash between the segment rename and the new log's creation: the
  // newest segment has no log yet. Segment-only recovery — a normal
  // protocol state, noted in the trail but not an error.
  RunCrashPointCase(
      "missing_wal",
      [](const std::string& dir) {
        const fs::path wal = NewestFile(dir, "wal-");
        ASSERT_FALSE(wal.empty());
        fs::remove(wal);
      },
      ErrorCode::kNone, {"segment-only recovery"});
}

// Writes the manifest files older builds published beside each segment,
// here as garbage: this build neither writes nor reads them.
void PlantOldManifestFiles(const std::string& dir) {
  std::ofstream(fs::path(dir) / "MANIFEST-000001", std::ios::binary)
      << "SCPRTMAN shredded";
  std::ofstream(fs::path(dir) / "CURRENT") << "MANIFEST-999999\n";
}

TEST(WalCrashPointTest, OlderBuildsManifestFilesAreInert) {
  RunCrashPointCase("old_manifest_files", PlantOldManifestFiles,
                    ErrorCode::kNone);
}

TEST(WalCrashPointTest, DamagedSegmentFallsBackToThePreviousGeneration) {
  // The newest segment is torn (crash mid-GC or a bad disk): recovery
  // must fall back to the previous generation, whose files GC retained.
  RunCrashPointCase(
      "bad_segment",
      [](const std::string& dir) {
        const fs::path segment = NewestFile(dir, "seg-");
        ASSERT_FALSE(segment.empty());
        fs::resize_file(segment, fs::file_size(segment) / 2);
      },
      // The trail names the skipped segment and its error code.
      ErrorCode::kCorrupt, {"seg-", ".snap: corrupt;"});
}

TEST(WalCrashPointTest, GarbageCollectionKeepsAFallbackGeneration) {
  // After a long run, the directory must hold the current generation, at
  // most one predecessor, and no unaccounted numbered files — GC retires
  // old generations without eating the fallback.
  const std::string tag = "gc";
  RunCrashPointCase(
      tag,
      [](const std::string& dir) {
        const DirectoryListing listing = ListDurabilityFiles(dir);
        EXPECT_GE(listing.segments.size(), 1u);
        EXPECT_LE(listing.segments.size(), 2u);
        EXPECT_LE(listing.wals.size(), 2u);
        // A generation is its segment and log; nothing else is written.
        for (const auto& entry : fs::directory_iterator(dir)) {
          const std::string name = entry.path().filename().string();
          std::uint64_t number = 0;
          EXPECT_TRUE(ParseSegmentFileName(name, number) ||
                      ParseWalFileName(name, number))
              << name;
        }
      },
      ErrorCode::kNone);
}

// ------------------------------------- The segment is the commit point ---

// CrashTrace cut into quanta, and an uninterrupted engine's report digest
// of each.
struct HarnessRun {
  stream::SyntheticTrace trace = CrashTrace();
  detect::DetectorConfig config;
  std::vector<stream::Quantum> quanta;
  std::vector<std::uint64_t> want;

  HarnessRun() {
    config.quantum_size = 120;
    quanta = stream::SplitIntoQuanta(trace.messages, config.quantum_size);
    engine::ParallelDetector reference({config}, &trace.dictionary);
    for (const stream::Quantum& quantum : quanta) {
      want.push_back(detect::ReportDigest(reference.ProcessQuantum(quantum)));
    }
  }
};

const HarnessRun& SharedHarnessRun() {
  static const HarnessRun run;
  return run;
}

// Feeds the quanta after `recovered`'s clock into it and expects the
// uninterrupted run's digests.
void ExpectSameTail(const HarnessRun& run,
                    engine::ParallelDetector& recovered) {
  const auto from = static_cast<std::size_t>(recovered.next_quantum_index());
  EXPECT_TRUE(recovered.quantizer().pending().empty());
  for (std::size_t q = from; q < run.quanta.size(); ++q) {
    const std::uint64_t digest =
        detect::ReportDigest(recovered.ProcessQuantum(run.quanta[q]));
    if (digest != run.want[q]) {
      ADD_FAILURE() << "quantum " << q << " diverged after recovering at "
                    << from;
      break;
    }
  }
}

TEST(WalCommitPointTest, UnopenableLogMakesTheNextCommitCutAgain) {
  // A generation every 8 quanta: commits 0-7 write seg-1 and 7 records
  // into wal-2; commit 8 cuts seg-3, whose log wal-4 cannot be opened
  // because a directory sits at its path. The landed segment is the live
  // generation all the same: nothing more may reach wal-2, and commit 9
  // must cut a fresh generation (seg-5, wal-6) rather than append.
  const HarnessRun& run = SharedHarnessRun();
  test_util::WalHarness wal("wal_unopenable_log", run.trace.dictionary,
                            /*full_interval=*/1);
  const fs::path dir = wal.directory();
  fs::create_directories(dir / WalFileName(4));
  engine::ParallelDetector head({run.config}, &run.trace.dictionary);
  for (std::size_t q = 0; q < 8; ++q) {
    head.ProcessQuantum(run.quanta[q]);
    wal.Commit(head, run.quanta[q]);
  }
  const std::uintmax_t old_log_size = fs::file_size(dir / WalFileName(2));

  head.ProcessQuantum(run.quanta[8]);
  CommitResult result = wal.TryCommit(head, run.quanta[8]);
  EXPECT_EQ(result.error.code, ErrorCode::kIo) << result.error.ToString();
  EXPECT_TRUE(result.persisted);
  EXPECT_TRUE(result.checkpoint);
  EXPECT_TRUE(fs::is_regular_file(dir / SegmentFileName(3)));
  EXPECT_EQ(fs::file_size(dir / WalFileName(2)), old_log_size);

  head.ProcessQuantum(run.quanta[9]);
  result = wal.TryCommit(head, run.quanta[9]);
  EXPECT_TRUE(result.error.ok()) << result.error.ToString();
  EXPECT_TRUE(result.checkpoint);
  EXPECT_TRUE(fs::is_regular_file(dir / SegmentFileName(5)));
  EXPECT_TRUE(fs::is_regular_file(dir / WalFileName(6)));
  if (fs::exists(dir / WalFileName(2))) {
    EXPECT_EQ(fs::file_size(dir / WalFileName(2)), old_log_size);
  }
  for (std::size_t q = 10; q < 14; ++q) {
    head.ProcessQuantum(run.quanta[q]);
    wal.Commit(head, run.quanta[q]);
  }

  RecoverResult recovered = wal.Recover();
  ASSERT_EQ(recovered.outcome, RecoverResult::Outcome::kRecovered)
      << recovered.detail;
  EXPECT_TRUE(recovered.error.ok()) << recovered.error.ToString();
  EXPECT_EQ(fs::path(recovered.segment_path).filename(), SegmentFileName(5));
  EXPECT_EQ(fs::path(recovered.wal_path).filename(), WalFileName(6));
  EXPECT_EQ(recovered.replayed_quanta, 4u);
  EXPECT_EQ(recovered.engine->next_quantum_index(), 14);
  ExpectSameTail(run, *recovered.engine);
}

TEST(WalCommitPointTest, LogsWithoutAnySegmentFailTyped) {
  // Logs alone are no recovery point: with every segment gone, recovery
  // must fail with a typed code rather than start fresh over the logs.
  const HarnessRun& run = SharedHarnessRun();
  test_util::WalHarness wal("wal_no_segment", run.trace.dictionary,
                            /*full_interval=*/1);
  engine::ParallelDetector head({run.config}, &run.trace.dictionary);
  for (std::size_t q = 0; q < 20; ++q) {
    head.ProcessQuantum(run.quanta[q]);
    wal.Commit(head, run.quanta[q]);
  }
  for (const auto& [number, name] :
       ListDurabilityFiles(wal.directory()).segments) {
    fs::remove(fs::path(wal.directory()) / name);
  }
  const RecoverResult recovered = wal.Recover();
  EXPECT_EQ(recovered.outcome, RecoverResult::Outcome::kFailed);
  EXPECT_EQ(recovered.error.code, ErrorCode::kCorrupt)
      << recovered.error.ToString();
}

// ------------------------------------------- Randomized recovery --------
//
// Each seed commits a random number of quanta (at least 4 generations at
// 8 quanta each), then applies 1-3 random damages to the two newest
// segments and logs — truncation, a flipped byte, deletion — or plants
// garbage manifest files of older builds. Recovery must restore the
// newest undamaged segment, or fail with a typed code when none is left,
// and never crash; a restored engine fed the remaining quanta from its
// clock must report what the uninterrupted run reported.

constexpr std::size_t kRecoveryFuzzSeeds = 32;

TEST(WalRecoveryFuzzTest, DamagedNewestGenerationsRecoverOrFailTyped) {
  const HarnessRun& run = SharedHarnessRun();
  std::size_t recovered_count = 0;
  std::size_t failed_count = 0;
  for (std::uint64_t seed = 1; seed <= kRecoveryFuzzSeeds; ++seed) {
    std::mt19937_64 rng(seed * 7919);
    const std::size_t committed = 26 + rng() % 40;
    ASSERT_LE(committed, run.quanta.size());
    test_util::WalHarness wal("wal_recovery_fuzz_" + std::to_string(seed),
                              run.trace.dictionary, /*full_interval=*/1);
    {
      engine::ParallelDetector head({run.config}, &run.trace.dictionary);
      for (std::size_t q = 0; q < committed; ++q) {
        head.ProcessQuantum(run.quanta[q]);
        wal.Commit(head, run.quanta[q]);
      }
    }

    const DirectoryListing listing = ListDurabilityFiles(wal.directory());
    ASSERT_EQ(listing.segments.size(), 2u);
    ASSERT_EQ(listing.wals.size(), 2u);
    std::vector<fs::path> targets;
    for (const auto* files : {&listing.segments, &listing.wals}) {
      for (const auto& [number, name] : *files) {
        targets.push_back(fs::path(wal.directory()) / name);
      }
    }
    std::string damage = std::to_string(committed) + " quanta;";
    std::set<std::string> damaged;
    const std::size_t damages = 1 + rng() % 3;
    for (std::size_t d = 0; d < damages; ++d) {
      const fs::path& target = targets[rng() % targets.size()];
      const std::string name = target.filename().string();
      const std::uint64_t kind = rng() % 4;
      if (kind == 3) {
        PlantOldManifestFiles(wal.directory());
        damage += " manifest files planted;";
        continue;
      }
      if (!fs::exists(target)) continue;
      damaged.insert(name);
      const std::uintmax_t size = fs::file_size(target);
      if (kind == 0) {
        const std::uintmax_t keep = size == 0 ? 0 : rng() % size;
        fs::resize_file(target, keep);
        damage += " " + name + " cut to " + std::to_string(keep) + ";";
      } else if (kind == 1 && size > 0) {
        const std::uintmax_t offset = rng() % size;
        std::fstream file(target,
                          std::ios::in | std::ios::out | std::ios::binary);
        char byte = 0;
        file.seekg(static_cast<std::streamoff>(offset)).read(&byte, 1);
        byte = static_cast<char>(byte ^ static_cast<char>(1 + rng() % 255));
        file.seekp(static_cast<std::streamoff>(offset)).write(&byte, 1);
        damage += " " + name + " byte " + std::to_string(offset) +
                  " flipped;";
      } else {
        fs::remove(target);
        damage += " " + name + " deleted;";
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + damage);
    // Every damage to a segment (a shorter file, a flipped byte, none at
    // all) makes it fail to load, and an untouched one always loads: the
    // newest untouched segment is the one recovery must restore.
    std::string want_segment;
    for (const auto& [number, name] : listing.segments) {
      if (damaged.count(name) == 0) want_segment = name;
    }

    RecoverResult recovered = wal.Recover();
    if (want_segment.empty()) {
      ++failed_count;
      EXPECT_EQ(recovered.outcome, RecoverResult::Outcome::kFailed);
      EXPECT_NE(recovered.error.code, ErrorCode::kNone) << recovered.detail;
      EXPECT_EQ(recovered.engine, nullptr);
      continue;
    }
    ASSERT_EQ(recovered.outcome, RecoverResult::Outcome::kRecovered)
        << recovered.detail;
    EXPECT_EQ(fs::path(recovered.segment_path).filename(), want_segment);
    ++recovered_count;
    ASSERT_NE(recovered.engine, nullptr);
    EXPECT_LE(recovered.engine->next_quantum_index(),
              static_cast<QuantumIndex>(committed));
    ExpectSameTail(run, *recovered.engine);
  }
  // The seeds cover both outcomes, mostly recoveries.
  EXPECT_GT(recovered_count, failed_count);
  EXPECT_GT(failed_count, 0u);
}

// ------------------------------------------ Hostile log records ----------
//
// The fragment CRC only proves a record is the one that was written. The
// forgeries below are re-framed through LogWriter, so every CRC is valid
// and the record-level acceptance rules (WalBackend's RecordRejection and
// the bounds-checked payload parser) are the only defense. The first
// record of the newest log is forged and the second left intact: replay
// must stop at the empty prefix — never skip ahead, crash or over-allocate
// — surface kCorrupt with the reason, and the resumed run must still be
// bit-identical (the source replays from the segment's fence).

// Rewrites the newest log with its first record replaced by
// `forge(record)`.
void ForgeFirstRecord(const std::string& dir,
                      const std::function<std::string(std::string)>& forge) {
  const fs::path wal = NewestFile(dir, "wal-");
  ASSERT_FALSE(wal.empty());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(wal.string(), contents));
  std::vector<std::string> records;
  LogReader reader(std::move(contents));
  std::string record;
  while (reader.ReadRecord(record)) records.push_back(record);
  ASSERT_GE(records.size(), 2u) << "the crash must leave a multi-record log";
  records.front() = forge(std::move(records.front()));
  auto file = AppendFile::Open(wal.string());
  ASSERT_NE(file, nullptr);
  LogWriter writer(file.get());
  for (const std::string& r : records) ASSERT_TRUE(writer.AddRecord(r));
  ASSERT_TRUE(file->Flush());
}

using RecordEdit = std::function<void(sio::DeltaPayload&, sio::IngestState&)>;

// A forgery on the decoded record: `edit` rewrites the delta and its
// IngestState section, and the record is re-encoded canonically.
std::function<void(const std::string&)> ForgeDecoded(const RecordEdit& edit) {
  return [edit](const std::string& dir) {
    ForgeFirstRecord(dir, [&](std::string bytes) {
      BinaryReader in(bytes);
      EXPECT_EQ(in.U8(), kWalRecordDelta);
      sio::DeltaPayload delta;
      sio::IngestState state;
      EXPECT_TRUE(sio::ReadDelta(in, delta));
      EXPECT_TRUE(sio::ReadIngestSection(in, state));
      edit(delta, state);
      BinaryWriter out;
      out.U8(kWalRecordDelta);
      sio::WriteDelta(out, delta.base_id, delta.next_index, delta.quanta,
                      delta.pending);
      sio::WriteIngestSection(out, state);
      return out.TakeData();
    });
  };
}

// A forgery on the raw record bytes: a little-endian `value` of `width`
// bytes overwrites the field at `offset`.
std::function<void(const std::string&)> ForgeField(std::size_t offset,
                                                   std::uint64_t value,
                                                   std::size_t width) {
  return [=](const std::string& dir) {
    ForgeFirstRecord(dir, [=](std::string bytes) {
      EXPECT_LE(offset + width, bytes.size());
      for (std::size_t i = 0; i < width; ++i) {
        bytes[offset + i] = static_cast<char>(value >> (8 * i));
      }
      return bytes;
    });
  };
}

// Record layout (snapshot_io::WriteDelta behind the kind byte): kind u8,
// base id u64, clock i64, quantum count u64, then the quantum — index
// i64, message count u64, and per message user u32, seq u64, event u32,
// keyword count u32.
constexpr std::size_t kMessageCountOffset = 1 + 8 + 8 + 8 + 8;
constexpr std::size_t kKeywordCountOffset = kMessageCountOffset + 8 + 16;

// Every forgery ends replay with the empty prefix.
constexpr char kEmptyPrefix[] = "(recovered prefix of 0 records)";

TEST(WalRecordForgeryTest, WrongBaseIdStopsReplay) {
  const RecordEdit edit = [](sio::DeltaPayload& delta, sio::IngestState&) {
    delta.base_id ^= 1;
  };
  RunCrashPointCase("forged_base", ForgeDecoded(edit), ErrorCode::kCorrupt,
                    {"record 1 rejected: chained to another segment",
                     kEmptyPrefix});
}

TEST(WalRecordForgeryTest, OutOfSequenceQuantumStopsReplay) {
  const RecordEdit edit = [](sio::DeltaPayload& delta, sio::IngestState&) {
    ++delta.quanta.front().index;  // skips one quantum
    ++delta.next_index;
  };
  RunCrashPointCase("forged_sequence", ForgeDecoded(edit),
                    ErrorCode::kCorrupt,
                    {"record 1 rejected: quantum ", kEmptyPrefix});
}

TEST(WalRecordForgeryTest, TwoQuantaInOneRecordStopReplay) {
  const RecordEdit edit = [](sio::DeltaPayload& delta, sio::IngestState&) {
    stream::Quantum twin = delta.quanta.front();
    ++twin.index;
    delta.quanta.push_back(std::move(twin));
    ++delta.next_index;
  };
  RunCrashPointCase("forged_quanta_count", ForgeDecoded(edit),
                    ErrorCode::kCorrupt,
                    {"record 1 rejected: 2 quanta, want 1", kEmptyPrefix});
}

TEST(WalRecordForgeryTest, OverfullPendingStopsReplay) {
  const RecordEdit edit = [](sio::DeltaPayload& delta, sio::IngestState&) {
    delta.pending = delta.quanta.front().messages;  // a whole quantum
  };
  RunCrashPointCase("forged_pending", ForgeDecoded(edit), ErrorCode::kCorrupt,
                    {"record 1 rejected: pending partial of 120 messages >= "
                     "quantum size 120",
                     kEmptyPrefix});
}

TEST(WalRecordForgeryTest, DictionaryTailGapStopsReplay) {
  const RecordEdit edit = [](sio::DeltaPayload&, sio::IngestState& state) {
    ++state.dictionary_base;
  };
  RunCrashPointCase("forged_dictionary_base", ForgeDecoded(edit),
                    ErrorCode::kCorrupt,
                    {"record 1 rejected: dictionary tail starts at ",
                     kEmptyPrefix});
}

TEST(WalRecordForgeryTest, ForgedMessageCountStopsReplayWithoutAllocating) {
  RunCrashPointCase("forged_message_count",
                    ForgeField(kMessageCountOffset, 0xFFFF'FFFF'FFFFull, 8),
                    ErrorCode::kCorrupt, {"record 1 malformed", kEmptyPrefix});
}

TEST(WalRecordForgeryTest, ForgedKeywordCountStopsReplayWithoutAllocating) {
  RunCrashPointCase("forged_keyword_count",
                    ForgeField(kKeywordCountOffset, 0xFFFF'FFF0u, 4),
                    ErrorCode::kCorrupt, {"record 1 malformed", kEmptyPrefix});
}

// ------------------------------------ Retired snapshot directories -------

TEST(LegacyDirectoryTest, RetiredCheckpointFilesRefuseAFreshStart) {
  // A directory the retired snapshot backend wrote holds full-/delta-*.ckpt
  // files and no segment. Reading it as empty would make --resume start
  // from scratch without a word; recovery must refuse it as version skew
  // and name the files.
  const std::string dir = TempDir("wal_legacy_snapshot_dir");
  std::ofstream(fs::path(dir) / "full-000001.ckpt") << "SCPRTSNP legacy";
  std::ofstream(fs::path(dir) / "delta-000002.ckpt") << "SCPRTSNP legacy";
  EXPECT_EQ(ListDurabilityFiles(dir).legacy_checkpoints.size(), 2u);

  ingest::DurableConfig durable;
  durable.directory = dir;
  engine::ParallelDetectorConfig engine_config;
  ingest::DurableIngest session(ingest::IngestConfig{}, engine_config,
                                durable);
  const ingest::ResumeResult resume = session.Resume();
  EXPECT_EQ(resume.outcome, ingest::ResumeResult::Outcome::kFailed);
  EXPECT_EQ(resume.error.code, ErrorCode::kVersionSkew);
  EXPECT_NE(resume.error.detail.find("full-000001.ckpt, delta-000002.ckpt"),
            std::string::npos)
      << resume.error.detail;
  EXPECT_NE(resume.detail.find("2 retired snapshot-backend checkpoint files"),
            std::string::npos)
      << resume.detail;
}

TEST(LegacyDirectoryTest, AWalGenerationBesideLegacyFilesStillRecovers) {
  // Legacy files only block a directory that has no segment: one the WAL
  // already wrote a generation into recovers as usual.
  RunCrashPointCase(
      "legacy_beside_wal",
      [](const std::string& dir) {
        std::ofstream(fs::path(dir) / "full-000001.ckpt") << "legacy";
      },
      ErrorCode::kNone);
}

}  // namespace
}  // namespace scprt::durability
