// The paged-file half of the event store's test battery: page framing
// (round trip, header damage, the page-number echo, one counted transfer
// per read and write), a corruption fuzz sweep — truncations, bit flips
// and forged CRCs over both the page file and STOREMETA must surface as
// typed durability errors, never crashes — and crash recovery: an
// uncommitted tail left in the file, and uncommitted page writes that
// reached the file before the writer was dropped (this suite runs in the
// ASan+UBSan CI job, unlabeled so the sanitizers actually see it).

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/random.h"
#include "durability/error.h"
#include "durability/file_names.h"
#include "obs/registry.h"
#include "store/lsh_index.h"
#include "store/page_file.h"

namespace scprt::store {
namespace {

namespace fs = std::filesystem;
using durability::ErrorCode;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("scprt_store_test_" + tag + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    if (!path_.empty()) fs::remove_all(path_);
  }
  TempDir(TempDir&& other) noexcept : path_(std::move(other.path_)) {
    other.path_.clear();
  }
  TempDir& operator=(TempDir&& other) noexcept {
    std::swap(path_, other.path_);
    return *this;
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fills a payload with a recognizable, page- and version-dependent byte
/// pattern (the shadow model's unit of content).
void FillPattern(char* payload, std::uint32_t page_no,
                 std::uint32_t version) {
  for (std::size_t i = 0; i < kPagePayloadSize; ++i) {
    payload[i] = static_cast<char>(
        (page_no * 131u + version * 31u + static_cast<std::uint32_t>(i)) &
        0xFF);
  }
}

bool MatchesPattern(const char* payload, std::uint32_t page_no,
                    std::uint32_t version) {
  char expect[kPagePayloadSize];
  FillPattern(expect, page_no, version);
  return std::memcmp(payload, expect, kPagePayloadSize) == 0;
}

// ---- PageFile ----------------------------------------------------------

TEST(PageFileTest, RoundTripsAndSurvivesReopen) {
  TempDir dir("pagefile");
  const std::string path = dir.File("t.pages");
  durability::Error error;
  auto file = PageFile::Create(path, &error);
  ASSERT_NE(file, nullptr) << error.ToString();
  EXPECT_EQ(file->page_count(), 1u);  // page 0 = header

  char payload[kPagePayloadSize];
  std::vector<std::uint32_t> pages;
  for (int i = 0; i < 5; ++i) {
    const std::uint32_t page = file->AllocatePage();
    FillPattern(payload, page, 0);
    ASSERT_TRUE(file->WritePage(page, payload).ok());
    pages.push_back(page);
  }
  ASSERT_TRUE(file->Sync());
  file.reset();

  file = PageFile::Open(path, /*read_only=*/true, &error);
  ASSERT_NE(file, nullptr) << error.ToString();
  EXPECT_EQ(file->page_count(), 6u);
  for (std::uint32_t page : pages) {
    ASSERT_TRUE(file->ReadPage(page, payload).ok());
    EXPECT_TRUE(MatchesPattern(payload, page, 0)) << "page " << page;
  }
}

TEST(PageFileTest, HeaderDamageIsTyped) {
  TempDir dir("pageheader");
  const std::string path = dir.File("t.pages");
  { ASSERT_NE(PageFile::Create(path), nullptr); }
  const std::string pristine = ReadAll(path);
  ASSERT_EQ(pristine.size(), kPageSize);

  durability::Error error;
  {  // Wrong magic (CRC refreshed so only the magic is at fault).
    std::string bytes = pristine;
    bytes[kPageHeaderSize] ^= 0x5A;
    const std::uint32_t crc = Crc32(
        std::string_view(bytes).substr(4, kPageSize - 4));
    for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(crc >> (8 * i));
    WriteAll(path, bytes);
    EXPECT_EQ(PageFile::Open(path, true, &error), nullptr);
    EXPECT_EQ(error.code, ErrorCode::kBadMagic) << error.ToString();
  }
  {  // Future version, again behind a valid CRC.
    std::string bytes = pristine;
    bytes[kPageHeaderSize + 8] = 99;
    const std::uint32_t crc = Crc32(
        std::string_view(bytes).substr(4, kPageSize - 4));
    for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(crc >> (8 * i));
    WriteAll(path, bytes);
    EXPECT_EQ(PageFile::Open(path, true, &error), nullptr);
    EXPECT_EQ(error.code, ErrorCode::kVersionSkew) << error.ToString();
  }
  {  // Truncated header page.
    WriteAll(path, pristine.substr(0, kPageSize / 2));
    EXPECT_EQ(PageFile::Open(path, true, &error), nullptr);
    EXPECT_NE(error.code, ErrorCode::kNone);
  }
  {  // Every single-bit flip across the header page fails CRC (or, for the
     // CRC bytes themselves, mismatches the recomputation).
    Rng rng(0x9A6E);
    for (int round = 0; round < 64; ++round) {
      std::string bytes = pristine;
      const std::size_t offset = rng.UniformInt(bytes.size());
      bytes[offset] = static_cast<char>(
          static_cast<unsigned char>(bytes[offset]) ^
          (1u << rng.UniformInt(8)));
      WriteAll(path, bytes);
      EXPECT_EQ(PageFile::Open(path, true, &error), nullptr)
          << "bit flip at " << offset << " survived";
      EXPECT_NE(error.code, ErrorCode::kNone);
    }
  }
}

TEST(PageFileTest, MisplacedPageFailsEcho) {
  // A frame copied to the wrong offset has a valid CRC but the wrong
  // page-number echo — the self-identification the torn-write defense
  // rests on.
  TempDir dir("pageecho");
  const std::string path = dir.File("t.pages");
  {
    auto file = PageFile::Create(path);
    ASSERT_NE(file, nullptr);
    char payload[kPagePayloadSize];
    for (int i = 0; i < 2; ++i) {
      const std::uint32_t page = file->AllocatePage();
      FillPattern(payload, page, 0);
      ASSERT_TRUE(file->WritePage(page, payload).ok());
    }
  }
  std::string bytes = ReadAll(path);
  ASSERT_EQ(bytes.size(), 3 * kPageSize);
  // Swap frames 1 and 2 wholesale.
  std::string frame1 = bytes.substr(kPageSize, kPageSize);
  std::string frame2 = bytes.substr(2 * kPageSize, kPageSize);
  bytes.replace(kPageSize, kPageSize, frame2);
  bytes.replace(2 * kPageSize, kPageSize, frame1);
  WriteAll(path, bytes);

  auto file = PageFile::Open(path, true);
  ASSERT_NE(file, nullptr);
  char payload[kPagePayloadSize];
  durability::Error error = file->ReadPage(1, payload);
  EXPECT_EQ(error.code, ErrorCode::kCorrupt) << error.ToString();
  error = file->ReadPage(2, payload);
  EXPECT_EQ(error.code, ErrorCode::kCorrupt) << error.ToString();
}

TEST(PageFileTest, CountsEveryPageReadAndWrite) {
  // No cache sits above the page file: each ReadPage and WritePage is one
  // transfer, counted as such.
  TempDir dir("pagecount");
  auto file = PageFile::Create(dir.File("t.pages"));
  ASSERT_NE(file, nullptr);
  obs::Counter* reads =
      obs::Registry::Default().GetCounter("store.page_read");
  obs::Counter* writes =
      obs::Registry::Default().GetCounter("store.page_write");
  const std::uint64_t reads_before = reads->Value();
  const std::uint64_t writes_before = writes->Value();

  char payload[kPagePayloadSize];
  const std::uint32_t page = file->AllocatePage();
  FillPattern(payload, page, 1);
  ASSERT_TRUE(file->WritePage(page, payload).ok());
  FillPattern(payload, page, 2);
  ASSERT_TRUE(file->WritePage(page, payload).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(file->ReadPage(page, payload).ok());
    EXPECT_TRUE(MatchesPattern(payload, page, 2));
  }
  EXPECT_EQ(writes->Value() - writes_before, 2u);
  EXPECT_EQ(reads->Value() - reads_before, 3u);
}

// ---- Store corruption fuzz ---------------------------------------------

/// A small committed index: a handful of synthetic events with distinct
/// keyword sets.
struct StoreFixture {
  TempDir dir{"fuzz"};
  std::string pages_path;
  std::string meta_path;
  std::string pages_bytes;
  std::string meta_bytes;
  std::uint32_t committed = 0;
};

StoreFixture BuildStoreFixture() {
  StoreFixture f;
  LshOptions options;
  options.bands = 8;
  options.rows = 2;
  options.directory_slots = 256;
  options.sync = false;
  auto index = LshIndex::Create(f.dir.path(), options);
  EXPECT_NE(index, nullptr);
  for (std::uint64_t c = 0; c < 12; ++c) {
    std::vector<std::string> keywords;
    for (int k = 0; k < 5; ++k) {
      keywords.push_back("kw" + std::to_string(c) + "_" +
                         std::to_string(k));
    }
    EXPECT_TRUE(index
                    ->Insert(c, static_cast<std::int64_t>(c), 0, 1.0,
                             10 + c, keywords, {}, 0)
                    .ok());
  }
  EXPECT_TRUE(index->Commit().ok());
  f.committed = index->committed_events();
  index.reset();

  f.pages_path = (fs::path(f.dir.path()) /
                  durability::IndexFileName(1))
                     .string();
  f.meta_path = (fs::path(f.dir.path()) / "STOREMETA").string();
  f.pages_bytes = ReadAll(f.pages_path);
  f.meta_bytes = ReadAll(f.meta_path);
  EXPECT_FALSE(f.pages_bytes.empty());
  EXPECT_FALSE(f.meta_bytes.empty());
  return f;
}

/// Opens the (possibly damaged) store read-only and, when that succeeds,
/// runs a query and a full scan. Whatever happens must be a typed error or
/// a clean (possibly reduced) result — never a crash. Returns true when
/// every committed event was still reachable.
bool ProbeStore(const std::string& directory, std::uint32_t committed) {
  durability::Error error;
  auto index = LshIndex::OpenReadOnly(directory, 0, &error);
  if (index == nullptr) {
    EXPECT_NE(error.code, ErrorCode::kNone)
        << "open failed without a typed error";
    return false;
  }
  std::vector<QueryResult> results;
  durability::Error qerr =
      index->Query({"kw3_0", "kw3_1", "kw3_2", "kw3_3", "kw3_4"}, 5,
                   &results);
  (void)qerr;  // ok-with-misses and typed failure are both acceptable
  std::vector<StoredEvent> events;
  durability::Error serr = index->ScanCommitted(&events);
  return serr.ok() && events.size() == committed;
}

TEST(StoreFuzzTest, PristineFixtureProbes) {
  StoreFixture f = BuildStoreFixture();
  EXPECT_TRUE(ProbeStore(f.dir.path(), f.committed));
}

TEST(StoreFuzzTest, PageFileTruncationsAreRejectedOrSurvivable) {
  StoreFixture f = BuildStoreFixture();
  Rng rng(0x7277);
  std::vector<std::size_t> cuts;
  for (int i = 0; i < 24; ++i) cuts.push_back(rng.UniformInt(f.pages_bytes.size()));
  cuts.push_back(0);
  cuts.push_back(kPageSize - 1);
  cuts.push_back(f.pages_bytes.size() - 1);
  for (std::size_t cut : cuts) {
    WriteAll(f.pages_path, f.pages_bytes.substr(0, cut));
    // Shorter than the committed watermark: Open must refuse outright.
    EXPECT_FALSE(ProbeStore(f.dir.path(), f.committed))
        << "truncation to " << cut << " went unnoticed";
  }
  WriteAll(f.pages_path, f.pages_bytes);
  EXPECT_TRUE(ProbeStore(f.dir.path(), f.committed));
}

TEST(StoreFuzzTest, PageFileBitFlipsNeverCrash) {
  StoreFixture f = BuildStoreFixture();
  Rng rng(0xF11B);
  for (int round = 0; round < 80; ++round) {
    std::string bytes = f.pages_bytes;
    const std::size_t offset = rng.UniformInt(bytes.size());
    bytes[offset] = static_cast<char>(
        static_cast<unsigned char>(bytes[offset]) ^
        (1u << rng.UniformInt(8)));
    WriteAll(f.pages_path, bytes);
    // The flipped page fails its CRC: depending on which page it is the
    // store opens degraded or refuses — both fine, crashing is not.
    (void)ProbeStore(f.dir.path(), f.committed);
  }
  WriteAll(f.pages_path, f.pages_bytes);
  EXPECT_TRUE(ProbeStore(f.dir.path(), f.committed));
}

TEST(StoreFuzzTest, ForgedPageCrcIsCaughtByRecordValidation) {
  // The adversary re-frames a damaged page with a VALID page CRC, so the
  // page layer accepts it; the record-level CRC + event-id echo must catch
  // the damage (or the probe degrades cleanly). Every non-header page is
  // attacked once.
  StoreFixture f = BuildStoreFixture();
  Rng rng(0xF063);
  const std::size_t pages = f.pages_bytes.size() / kPageSize;
  for (std::size_t page = 1; page < pages; ++page) {
    std::string bytes = f.pages_bytes;
    const std::size_t frame = page * kPageSize;
    // Damage a random payload byte, then recompute the frame CRC so the
    // page itself verifies.
    const std::size_t victim =
        frame + kPageHeaderSize + rng.UniformInt(kPagePayloadSize);
    bytes[victim] = static_cast<char>(
        static_cast<unsigned char>(bytes[victim]) ^ 0xFF);
    const std::uint32_t crc = Crc32(
        std::string_view(bytes).substr(frame + 4, kPageSize - 4));
    for (int i = 0; i < 4; ++i) {
      bytes[frame + i] = static_cast<char>(crc >> (8 * i));
    }
    WriteAll(f.pages_path, bytes);
    (void)ProbeStore(f.dir.path(), f.committed);  // must not crash
  }
  WriteAll(f.pages_path, f.pages_bytes);
  EXPECT_TRUE(ProbeStore(f.dir.path(), f.committed));
}

TEST(StoreFuzzTest, MetaDamageIsTyped) {
  StoreFixture f = BuildStoreFixture();
  durability::Error error;
  {  // Wrong magic.
    std::string bytes = f.meta_bytes;
    bytes[0] ^= 0x55;
    WriteAll(f.meta_path, bytes);
    EXPECT_EQ(LshIndex::OpenReadOnly(f.dir.path(), 0, &error), nullptr);
    EXPECT_EQ(error.code, ErrorCode::kBadMagic) << error.ToString();
  }
  {  // Future version.
    std::string bytes = f.meta_bytes;
    bytes[8] = 99;
    WriteAll(f.meta_path, bytes);
    EXPECT_EQ(LshIndex::OpenReadOnly(f.dir.path(), 0, &error), nullptr);
    EXPECT_EQ(error.code, ErrorCode::kVersionSkew) << error.ToString();
  }
  // Every truncation of the meta file is rejected.
  for (std::size_t cut = 0; cut < f.meta_bytes.size(); ++cut) {
    WriteAll(f.meta_path, f.meta_bytes.substr(0, cut));
    EXPECT_EQ(LshIndex::OpenReadOnly(f.dir.path(), 0, &error), nullptr)
        << "meta truncated to " << cut << " accepted";
    EXPECT_NE(error.code, ErrorCode::kNone);
  }
  // Every single-bit flip past the version field is rejected (payload is
  // CRC-covered; the length field feeds a bounds check).
  Rng rng(0x3E7A);
  for (int round = 0; round < 128; ++round) {
    std::string bytes = f.meta_bytes;
    const std::size_t offset = 12 + rng.UniformInt(bytes.size() - 12);
    bytes[offset] = static_cast<char>(
        static_cast<unsigned char>(bytes[offset]) ^
        (1u << rng.UniformInt(8)));
    if (bytes == f.meta_bytes) continue;
    WriteAll(f.meta_path, bytes);
    EXPECT_EQ(LshIndex::OpenReadOnly(f.dir.path(), 0, &error), nullptr)
        << "meta bit flip at " << offset << " accepted";
  }
  // Missing meta entirely: typed, not a crash.
  fs::remove(f.meta_path);
  EXPECT_EQ(LshIndex::OpenReadOnly(f.dir.path(), 0, &error), nullptr);
  EXPECT_EQ(error.code, ErrorCode::kIo) << error.ToString();

  WriteAll(f.meta_path, f.meta_bytes);
  EXPECT_TRUE(ProbeStore(f.dir.path(), f.committed));
}

TEST(StoreFuzzTest, WriterRecoversFromUncommittedTail) {
  // Crash simulation: extra uncommitted pages past the committed watermark
  // (a torn batch). The writer must clamp, rebuild the directory, and keep
  // both the old committed events and the ability to add new ones.
  StoreFixture f = BuildStoreFixture();
  std::string bytes = f.pages_bytes;
  bytes.append(3 * kPageSize, '\xAB');  // garbage tail, no valid CRCs
  WriteAll(f.pages_path, bytes);

  LshOptions options;
  options.sync = false;
  durability::Error error;
  auto index = LshIndex::Open(f.dir.path(), options, &error);
  ASSERT_NE(index, nullptr) << error.ToString();
  EXPECT_EQ(index->committed_events(), f.committed);

  // Replay of an already-indexed event is a no-op...
  ASSERT_TRUE(index
                  ->Insert(3, 3, 0, 1.0, 13,
                           {"kw3_0", "kw3_1", "kw3_2", "kw3_3", "kw3_4"},
                           {}, 0)
                  .ok());
  EXPECT_EQ(index->next_event_id(), f.committed);
  // ...and a genuinely new event lands and is queryable after Commit.
  ASSERT_TRUE(index
                  ->Insert(99, 40, 40, 2.0, 77,
                           {"fresh_a", "fresh_b", "fresh_c"}, {}, 0)
                  .ok());
  ASSERT_TRUE(index->Commit().ok());
  std::vector<QueryResult> results;
  ASSERT_TRUE(
      index->Query({"fresh_a", "fresh_b", "fresh_c"}, 3, &results).ok());
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].event.cluster_id, 99u);
  EXPECT_DOUBLE_EQ(results[0].jaccard, 1.0);
  // The old events also survived the rebuild.
  ASSERT_TRUE(
      index->Query({"kw5_0", "kw5_1", "kw5_2", "kw5_3", "kw5_4"}, 3,
                   &results)
          .ok());
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].event.cluster_id, 5u);
}

TEST(StoreFuzzTest, UncommittedPageWritesStayInvisible) {
  // Every page write reaches the file when it is made, so a writer dropped
  // between commits leaves its uncommitted inserts in the page file. Only
  // STOREMETA decides what is visible: a reader and a reopened writer
  // both see exactly the committed events.
  TempDir dir("uncommitted");
  auto keywords = [](std::uint64_t c) {
    std::vector<std::string> set;
    for (int k = 0; k < 4; ++k) {
      set.push_back('u' + std::to_string(c) + '_' + std::to_string(k));
    }
    return set;
  };
  constexpr std::uint64_t kCommitted = 40;
  constexpr std::uint64_t kUncommitted = 20;
  LshOptions options;
  options.sync = false;
  const std::string pages_path =
      (fs::path(dir.path()) / durability::IndexFileName(1)).string();
  std::string committed_bytes;
  {
    auto writer = LshIndex::Create(dir.path(), options);
    ASSERT_NE(writer, nullptr);
    for (std::uint64_t c = 0; c < kCommitted + kUncommitted; ++c) {
      if (c == kCommitted) {
        ASSERT_TRUE(writer->Commit().ok());
        committed_bytes = ReadAll(pages_path);
      }
      ASSERT_TRUE(writer
                      ->Insert(c, static_cast<std::int64_t>(c), 0, 1.0, 5,
                               keywords(c), {}, 0)
                      .ok());
    }
  }  // dropped without a commit
  ASSERT_NE(ReadAll(pages_path), committed_bytes)
      << "the uncommitted inserts never reached the page file";

  durability::Error error;
  auto reader = LshIndex::OpenReadOnly(dir.path(), 0, &error);
  ASSERT_NE(reader, nullptr) << error.ToString();
  EXPECT_EQ(reader->committed_events(), kCommitted);
  std::vector<QueryResult> results;
  for (std::uint64_t c = 0; c < kCommitted + kUncommitted; ++c) {
    ASSERT_TRUE(reader->Query(keywords(c), 5, &results).ok());
    if (c < kCommitted) {
      ASSERT_FALSE(results.empty()) << "committed event " << c << " lost";
      EXPECT_EQ(results[0].event.cluster_id, c);
      EXPECT_DOUBLE_EQ(results[0].jaccard, 1.0);
    }
    for (const QueryResult& result : results) {
      EXPECT_LT(result.event.cluster_id, kCommitted)
          << "uncommitted event " << result.event.cluster_id << " surfaced";
    }
  }

  auto writer = LshIndex::Open(dir.path(), options, &error);
  ASSERT_NE(writer, nullptr) << error.ToString();
  EXPECT_EQ(writer->committed_events(), kCommitted);
  EXPECT_EQ(writer->next_event_id(), kCommitted);
  ASSERT_TRUE(writer->Insert(500, 500, 0, 2.0, 9, {"late_a", "late_b"}, {}, 0)
                  .ok());
  ASSERT_TRUE(writer->Commit().ok());
  ASSERT_TRUE(writer->Query({"late_a", "late_b"}, 5, &results).ok());
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].event.event_id, kCommitted);
  EXPECT_EQ(results[0].event.cluster_id, 500u);
  EXPECT_DOUBLE_EQ(results[0].jaccard, 1.0);
}

}  // namespace
}  // namespace scprt::store
