// The log-structured durability tier: block/fragment log framing round
// trips, the torn-tail fuzz battery (truncated block, bit-flipped CRC,
// torn final fragment, forged length), the manifest + CURRENT protocol
// with its stale-CURRENT fallback, the crash-point matrix — directory
// states a crash can leave between append, fsync, manifest publish and GC,
// each of which a WalBackend-driven ingest session must resume from with a
// report stream bit-identical to a never-interrupted run's — hostile log
// records behind valid CRCs (the record-level acceptance rules), and the
// refusal to start fresh over a retired snapshot-backend directory.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "detect/report.h"
#include "detect/snapshot_io.h"
#include "durability/backend.h"
#include "durability/log_format.h"
#include "durability/log_reader.h"
#include "durability/log_writer.h"
#include "durability/manifest.h"
#include "durability/posix_file.h"
#include "durability/wal_backend.h"
#include "engine/parallel_detector.h"
#include "ingest/durable.h"
#include "ingest/source.h"
#include "ingest/text_export.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"

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

// ------------------------------------------- Manifest + CURRENT ----------

TEST(ManifestTest, FileNameCodecsRoundTripAndRejectForeignNames) {
  EXPECT_EQ(SegmentFileName(7), "seg-000007.snap");
  EXPECT_EQ(WalFileName(42), "wal-000042.log");
  EXPECT_EQ(ManifestFileName(3), "MANIFEST-000003");

  std::uint64_t number = 0;
  EXPECT_TRUE(ParseSegmentFileName("seg-000007.snap", number));
  EXPECT_EQ(number, 7u);
  EXPECT_TRUE(ParseWalFileName("wal-1000001.log", number));
  EXPECT_EQ(number, 1'000'001u);
  EXPECT_TRUE(ParseManifestFileName("MANIFEST-000003", number));
  EXPECT_EQ(number, 3u);

  // Partial matches and the retired snapshot backend's files must not
  // parse.
  EXPECT_FALSE(ParseSegmentFileName("seg-000007.snap.tmp", number));
  EXPECT_FALSE(ParseSegmentFileName("full-000007.ckpt", number));
  EXPECT_FALSE(ParseWalFileName("wal-.log", number));
  EXPECT_FALSE(ParseManifestFileName("MANIFEST-000003x", number));
  EXPECT_FALSE(ParseManifestFileName("CURRENT", number));
}

TEST(ManifestTest, EncodeDecodeRoundTripAndTypedRejects) {
  Manifest manifest;
  manifest.manifest_number = 9;
  manifest.segment_number = 7;
  manifest.wal_number = 8;
  manifest.base_checkpoint_id = 0xDEADBEEFCAFEF00Dull;
  manifest.next_file_number = 10;
  manifest.next_quantum = 1234;
  const std::string bytes = EncodeManifest(manifest);

  Manifest decoded;
  decoded.manifest_number = 9;  // from the file name, not the payload
  ASSERT_TRUE(DecodeManifest(bytes, decoded));
  EXPECT_EQ(decoded.segment_number, 7u);
  EXPECT_EQ(decoded.wal_number, 8u);
  EXPECT_EQ(decoded.base_checkpoint_id, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(decoded.next_file_number, 10u);
  EXPECT_EQ(decoded.next_quantum, 1234);

  Error error;
  Manifest scratch;
  {  // Payload bit flip -> kCorrupt.
    std::string corrupt = bytes;
    corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
    EXPECT_FALSE(DecodeManifest(corrupt, scratch, &error));
    EXPECT_EQ(error.code, ErrorCode::kCorrupt);
  }
  {  // Truncation -> kCorrupt.
    EXPECT_FALSE(
        DecodeManifest(bytes.substr(0, bytes.size() - 5), scratch, &error));
    EXPECT_EQ(error.code, ErrorCode::kCorrupt);
  }
  {  // Not a manifest -> kBadMagic.
    EXPECT_FALSE(DecodeManifest("CURRENTly not a manifest", scratch, &error));
    EXPECT_EQ(error.code, ErrorCode::kBadMagic);
  }
  {  // Future version -> kVersionSkew, distinct from corruption.
    std::string skewed = bytes;
    skewed[8] = 2;
    EXPECT_FALSE(DecodeManifest(skewed, scratch, &error));
    EXPECT_EQ(error.code, ErrorCode::kVersionSkew);
  }
}

TEST(ManifestTest, PublishRepointsCurrentAndStaleCurrentFallsBack) {
  const std::string dir = TempDir("wal_manifest_publish");
  Manifest first;
  first.manifest_number = 3;
  first.segment_number = 1;
  first.wal_number = 2;
  ASSERT_TRUE(PublishManifest(dir, first, /*sync=*/false).ok());
  Manifest second;
  second.manifest_number = 6;
  second.segment_number = 4;
  second.wal_number = 5;
  ASSERT_TRUE(PublishManifest(dir, second, /*sync=*/false).ok());

  ASSERT_EQ(ReadCurrent(dir), std::optional<std::uint64_t>(6));
  auto loaded = LoadCurrentManifest(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->manifest_number, 6u);
  EXPECT_EQ(loaded->segment_number, 4u);

  // Stale CURRENT: names a manifest that was lost. Recovery must fall
  // back to the newest manifest that decodes rather than giving up.
  std::ofstream(fs::path(dir) / "CURRENT") << "MANIFEST-000099\n";
  std::string detail;
  loaded = LoadCurrentManifest(dir, nullptr, &detail);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->manifest_number, 6u);
  EXPECT_NE(detail.find("MANIFEST-000099"), std::string::npos);

  // Stale CURRENT *and* a damaged newest manifest: the older one rescues.
  std::ofstream(fs::path(dir) / "MANIFEST-000006",
                std::ios::binary | std::ios::trunc)
      << "shredded";
  loaded = LoadCurrentManifest(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->manifest_number, 3u);

  // Nothing decodable at all -> typed kNoManifest.
  const std::string empty = TempDir("wal_manifest_empty");
  Error error;
  EXPECT_FALSE(LoadCurrentManifest(empty, &error).has_value());
  EXPECT_EQ(error.code, ErrorCode::kNoManifest);
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
  // Crash between CURRENT rename and the new log's creation: the manifest
  // names a log that never hit the disk. Segment-only recovery — a normal
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

TEST(WalCrashPointTest, MissingCurrentFallsBackToTheManifestScan) {
  // Crash between the manifest write and the CURRENT rename (or CURRENT
  // lost outright): the newest decodable manifest still names the
  // generation.
  RunCrashPointCase(
      "missing_current",
      [](const std::string& dir) { fs::remove(fs::path(dir) / "CURRENT"); },
      ErrorCode::kNone, {"CURRENT missing"});
}

TEST(WalCrashPointTest, StaleCurrentFallsBackToTheManifestScan) {
  RunCrashPointCase(
      "stale_current",
      [](const std::string& dir) {
        std::ofstream(fs::path(dir) / "CURRENT") << "MANIFEST-999999\n";
      },
      ErrorCode::kNone, {"CURRENT is stale"});
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
        EXPECT_LE(listing.manifests.size(), 2u);
      },
      ErrorCode::kNone);
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
  // files and no manifest. Reading it as empty would make --resume start
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
  // Legacy files only block a directory that has no manifest: one the WAL
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
