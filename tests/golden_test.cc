// Golden-trace regression corpus: canonical traces committed under
// tests/golden/ with the expected per-quantum report digests. Any change to
// detector behavior — intended or not — shows up as a digest mismatch here,
// so silent drift cannot slip into a future PR. The detector replays the
// corpus and must match the committed digests.
//
// Regenerating after an INTENTIONAL behavior change:
//
//   SCPRT_UPDATE_GOLDEN=1 ./golden_test
//
// rewrites the .digests and .snapshots files (and materializes any missing
// .trace file from its fixed generator config). Commit the diff together
// with the change that caused it, and say why in the PR.
//
// The .snapshots files pin the engine's persisted state the same way: the
// hash of durability::SaveSnapshot's bytes right after each of a few fixed
// quanta closed. A refactor that must not change the snapshot (or WAL
// segment) format fails here rather than in a manual `cmp`.
//
// golden_store.fingerprint pins the event store's files the same way: the
// hashes of the single-pass golden store's page file and STOREMETA record.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "detect/report.h"
#include "durability/backend.h"
#include "durability/file_names.h"
#include "durability/posix_file.h"
#include "engine/parallel_detector.h"
#include "store/event_indexer.h"
#include "store/lsh_index.h"
#include "stream/synthetic.h"
#include "stream/trace.h"

#ifndef SCPRT_GOLDEN_DIR
#error "SCPRT_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace scprt {
namespace {

struct GoldenCase {
  const char* name;
  // Trace generator (fixed forever — regeneration must be reproducible).
  stream::SyntheticConfig (*trace_config)();
  // Detector configuration the digests were recorded under.
  detect::DetectorConfig (*detector_config)();
};

// --- The corpus. Generator and detector configs are frozen: changing one
// --- invalidates the committed digests by construction.

stream::SyntheticConfig TwTrace() {
  stream::SyntheticConfig config;
  config.seed = 1001;
  config.num_messages = 8'000;
  config.num_users = 1'500;
  config.background_vocab = 2'000;
  config.num_events = 5;
  config.num_spurious = 1;
  config.peak_share_min = 0.04;
  config.peak_share_max = 0.09;
  config.event_duration_min = 2'000;
  config.event_duration_max = 5'000;
  config.event_user_pool = 200;
  return config;
}

stream::SyntheticConfig EsTrace() {
  stream::SyntheticConfig config;
  config.seed = 1002;
  config.num_messages = 8'000;
  config.num_users = 1'200;
  config.background_vocab = 1'500;
  config.num_events = 10;
  config.num_spurious = 3;
  config.peak_share_min = 0.03;
  config.peak_share_max = 0.08;
  config.event_duration_min = 1'500;
  config.event_duration_max = 4'000;
  config.event_user_pool = 150;
  return config;
}

stream::SyntheticConfig ChatterTrace() {
  stream::SyntheticConfig config;
  config.seed = 1003;
  config.num_messages = 8'000;
  config.num_users = 1'500;
  config.background_vocab = 1'500;
  config.num_events = 3;
  config.num_spurious = 1;
  config.peak_share_min = 0.05;
  config.peak_share_max = 0.09;
  config.event_duration_min = 2'000;
  config.event_duration_max = 5'000;
  config.event_user_pool = 200;
  config.chatter_pairs = 3;
  config.chatter_rings = 2;
  config.chatter_period_msgs = 3'000;
  config.chatter_active_msgs = 600;
  return config;
}

stream::SyntheticConfig SparseTrace() {
  stream::SyntheticConfig config;
  config.seed = 1004;
  config.num_messages = 6'000;
  config.num_users = 2'500;
  config.background_vocab = 3'000;
  config.num_events = 2;
  config.num_spurious = 0;
  config.peak_share_min = 0.02;
  config.peak_share_max = 0.05;
  config.event_duration_min = 2'500;
  config.event_duration_max = 4'000;
  config.event_user_pool = 120;
  return config;
}

detect::DetectorConfig NominalGolden() {
  detect::DetectorConfig config;
  config.quantum_size = 100;
  config.akg.window_length = 12;
  return config;
}

detect::DetectorConfig TightGolden() {
  detect::DetectorConfig config;
  config.quantum_size = 80;
  config.akg.window_length = 10;
  config.akg.high_state_threshold = 3;
  config.akg.ec_threshold = 0.15;
  return config;
}

const GoldenCase kCorpus[] = {
    {"golden_tw", TwTrace, NominalGolden},
    {"golden_es", EsTrace, NominalGolden},
    {"golden_chatter", ChatterTrace, TightGolden},
    {"golden_sparse", SparseTrace, TightGolden},
};

bool UpdateMode() {
  const char* env = std::getenv("SCPRT_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string TracePath(const GoldenCase& c) {
  return std::string(SCPRT_GOLDEN_DIR) + "/" + c.name + ".trace";
}

std::string DigestPath(const GoldenCase& c) {
  return std::string(SCPRT_GOLDEN_DIR) + "/" + c.name + ".digests";
}

std::vector<std::uint64_t> RunDigests(
    const std::vector<detect::QuantumReport>& reports) {
  std::vector<std::uint64_t> digests;
  digests.reserve(reports.size());
  for (const detect::QuantumReport& r : reports) {
    digests.push_back(detect::ReportDigest(r));
  }
  return digests;
}

bool ReadDigestFile(const std::string& path,
                    std::vector<std::uint64_t>& digests) {
  std::ifstream in(path);
  if (!in) return false;
  digests.clear();
  std::uint64_t quantum = 0;
  std::string hex;
  while (in >> quantum >> hex) {
    if (quantum != digests.size()) return false;
    digests.push_back(std::strtoull(hex.c_str(), nullptr, 16));
  }
  return true;
}

bool WriteDigestFile(const std::string& path,
                     const std::vector<std::uint64_t>& digests) {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t q = 0; q < digests.size(); ++q) {
    char line[40];
    std::snprintf(line, sizeof(line), "%zu %016llx\n", q,
                  static_cast<unsigned long long>(digests[q]));
    out << line;
  }
  return static_cast<bool>(out);
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, ReportsMatchCommittedDigests) {
  const GoldenCase& c = GetParam();

  stream::SyntheticTrace trace;
  if (!stream::ReadTraceFile(TracePath(c), trace)) {
    ASSERT_TRUE(UpdateMode())
        << "missing golden trace " << TracePath(c)
        << " — run with SCPRT_UPDATE_GOLDEN=1 to materialize it";
    trace = stream::GenerateSyntheticTrace(c.trace_config());
    ASSERT_TRUE(stream::WriteTraceFile(trace, TracePath(c)));
  }

  engine::ParallelDetector detector({c.detector_config()},
                                    &trace.dictionary);
  const std::vector<detect::QuantumReport> reports =
      detector.Run(trace.messages);
  ASSERT_GT(reports.size(), 20u) << "golden trace degenerated";
  const std::vector<std::uint64_t> digests = RunDigests(reports);

  if (UpdateMode()) {
    ASSERT_TRUE(WriteDigestFile(DigestPath(c), digests));
  } else {
    std::vector<std::uint64_t> expected;
    ASSERT_TRUE(ReadDigestFile(DigestPath(c), expected))
        << "missing/corrupt " << DigestPath(c);
    ASSERT_EQ(digests.size(), expected.size());
    for (std::size_t q = 0; q < digests.size(); ++q) {
      EXPECT_EQ(digests[q], expected[q])
          << c.name << " drifted at quantum " << q
          << " — if intentional, regenerate with SCPRT_UPDATE_GOLDEN=1 and "
             "explain in the PR";
    }
  }
}

std::string SnapshotPath(const GoldenCase& c) {
  return std::string(SCPRT_GOLDEN_DIR) + "/" + c.name + ".snapshots";
}

/// The quanta after which the engine's snapshot is fingerprinted: early
/// (window still filling), mid-trace and late. Every golden trace closes
/// more than 60 quanta. Line i of a .snapshots file holds the hash taken
/// after quantum kSnapshotQuanta[i].
constexpr std::uint64_t kSnapshotQuanta[] = {10, 35, 60};

TEST_P(GoldenTest, SnapshotsMatchCommittedFingerprints) {
  const GoldenCase& c = GetParam();
  stream::SyntheticTrace trace;
  ASSERT_TRUE(stream::ReadTraceFile(TracePath(c), trace))
      << "golden trace missing — run golden_test with SCPRT_UPDATE_GOLDEN=1"
         " first";

  engine::ParallelDetector detector({c.detector_config()},
                                    &trace.dictionary);
  std::vector<std::uint64_t> fingerprints;
  std::uint64_t closed = 0;
  for (const stream::Message& message : trace.messages) {
    if (fingerprints.size() == std::size(kSnapshotQuanta)) break;
    if (!detector.Push(message)) continue;
    if (closed++ != kSnapshotQuanta[fingerprints.size()]) continue;
    std::ostringstream bytes;
    ASSERT_TRUE(durability::SaveSnapshot(detector, bytes).ok());
    fingerprints.push_back(HashBytes(bytes.str(), 0));
  }
  ASSERT_EQ(fingerprints.size(), std::size(kSnapshotQuanta))
      << "golden trace closed too few quanta";

  if (UpdateMode()) {
    ASSERT_TRUE(WriteDigestFile(SnapshotPath(c), fingerprints));
  } else {
    std::vector<std::uint64_t> expected;
    ASSERT_TRUE(ReadDigestFile(SnapshotPath(c), expected))
        << "missing/corrupt " << SnapshotPath(c);
    EXPECT_EQ(fingerprints, expected)
        << c.name << " snapshot bytes drifted — if intentional, regenerate "
           "with SCPRT_UPDATE_GOLDEN=1 and explain in the PR";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTest, ::testing::ValuesIn(kCorpus),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// --- The query corpus: the golden_tw trace's events, persisted into the
// --- LSH event store and probed with queries derived deterministically
// --- from the committed events themselves. The committed digests pin the
// --- full ranked answer (ids, order, jaccard and support-estimate bits);
// --- a single-pass ingest and a kill/replay resume must both reproduce
// --- them bit-identically.

class ScopedStoreDir {
 public:
  explicit ScopedStoreDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("scprt_golden_store_" + tag + "_" +
              std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedStoreDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

store::LshOptions GoldenStoreOptions() {
  store::LshOptions options;
  options.bands = 8;
  options.rows = 2;
  options.directory_slots = 1024;
  options.sync = false;  // durability is store_test's concern, not drift's
  return options;
}

/// Streams `messages` through a fresh engine wired to a store in `dir`
/// (which must already hold a created-or-recovered index when `resume`).
void IngestIntoStore(const stream::SyntheticTrace& trace,
                     const std::vector<stream::Message>& messages,
                     const detect::DetectorConfig& config,
                     store::LshIndex* index) {
  store::EventIndexer indexer(index, /*commit_every=*/1);
  engine::ParallelDetector engine({config}, &trace.dictionary);
  engine.set_cluster_sink(&indexer);
  for (const stream::Message& message : messages) {
    (void)engine.Push(message);
  }
  ASSERT_TRUE(indexer.Flush().ok());
  ASSERT_TRUE(indexer.last_error().ok()) << indexer.last_error().ToString();
}

/// The fixed query derivation: for every committed event, its full keyword
/// set and its first-half prefix; every third event also contributes a
/// cross-event mix with its successor. Depends only on committed content,
/// so every correctly built store derives the same list.
std::vector<std::vector<std::string>> DeriveQueries(store::LshIndex& index) {
  std::vector<store::StoredEvent> events;
  EXPECT_TRUE(index.ScanCommitted(&events).ok());
  EXPECT_FALSE(events.empty()) << "golden store holds no events";
  std::vector<std::vector<std::string>> queries;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::vector<std::string>& kw = events[i].keywords;
    queries.push_back(kw);
    const std::size_t half = std::max<std::size_t>(2, kw.size() / 2);
    queries.emplace_back(kw.begin(),
                         kw.begin() + std::min(half, kw.size()));
    if (i % 3 == 0 && i + 1 < events.size()) {
      std::vector<std::string> mix(
          kw.begin(), kw.begin() + std::min<std::size_t>(3, kw.size()));
      const std::vector<std::string>& next = events[i + 1].keywords;
      mix.insert(mix.end(), next.begin(),
                 next.begin() + std::min<std::size_t>(3, next.size()));
      queries.push_back(std::move(mix));
    }
  }
  return queries;
}

/// One digest per query over the full ranked answer. Doubles enter by bit
/// pattern — the digest pins the arithmetic, not a rounding of it.
std::vector<std::uint64_t> QueryDigests(
    store::LshIndex& index,
    const std::vector<std::vector<std::string>>& queries) {
  std::vector<std::uint64_t> digests;
  digests.reserve(queries.size());
  for (const std::vector<std::string>& query : queries) {
    std::vector<store::QueryResult> results;
    EXPECT_TRUE(index.Query(query, 10, &results).ok());
    std::uint64_t d = 0xD16E5700C0FFEEULL;
    for (const store::QueryResult& r : results) {
      d = HashCombine(d, r.event.cluster_id);
      d = HashCombine(d, static_cast<std::uint64_t>(r.event.quantum));
      d = HashCombine(d, std::bit_cast<std::uint64_t>(r.jaccard));
      d = HashCombine(d, std::bit_cast<std::uint64_t>(r.support_estimate));
      for (const std::string& keyword : r.event.keywords) {
        d = HashCombine(d, HashBytes(keyword, 0));
      }
    }
    digests.push_back(d);
  }
  return digests;
}

TEST(GoldenQueryTest, StoreAnswersMatchCommittedDigestsAtAnyIngestPath) {
  const GoldenCase& c = kCorpus[0];  // golden_tw
  stream::SyntheticTrace trace;
  ASSERT_TRUE(stream::ReadTraceFile(TracePath(c), trace))
      << "golden trace missing — run golden_test with SCPRT_UPDATE_GOLDEN=1"
         " first";
  const std::string digest_path =
      std::string(SCPRT_GOLDEN_DIR) + "/golden_queries.digests";

  // Single-pass ingest.
  ScopedStoreDir serial_dir("serial");
  std::vector<std::uint64_t> digests;
  std::vector<std::vector<std::string>> queries;
  {
    auto index = store::LshIndex::Create(serial_dir.path(),
                                         GoldenStoreOptions());
    ASSERT_NE(index, nullptr);
    IngestIntoStore(trace, trace.messages, c.detector_config(), index.get());
    queries = DeriveQueries(*index);
    ASSERT_GT(queries.size(), 10u);
    digests = QueryDigests(*index, queries);
  }

  // The closed single-pass store's bytes: line 0 hashes the page file,
  // line 1 the STOREMETA record.
  std::vector<std::uint64_t> store_hashes;
  for (const std::string& name :
       {durability::IndexFileName(1), std::string("STOREMETA")}) {
    std::string bytes;
    ASSERT_TRUE(
        durability::ReadFileToString(serial_dir.path() + "/" + name, bytes))
        << name;
    store_hashes.push_back(HashBytes(bytes, 0));
  }
  const std::string store_path =
      std::string(SCPRT_GOLDEN_DIR) + "/golden_store.fingerprint";

  if (UpdateMode()) {
    ASSERT_TRUE(WriteDigestFile(digest_path, digests));
    ASSERT_TRUE(WriteDigestFile(store_path, store_hashes));
  } else {
    std::vector<std::uint64_t> expected_store;
    ASSERT_TRUE(ReadDigestFile(store_path, expected_store))
        << "missing/corrupt " << store_path;
    EXPECT_EQ(store_hashes, expected_store)
        << "golden store bytes drifted — if intentional, regenerate with "
           "SCPRT_UPDATE_GOLDEN=1 and explain in the PR";
    std::vector<std::uint64_t> expected;
    ASSERT_TRUE(ReadDigestFile(digest_path, expected))
        << "missing/corrupt " << digest_path;
    ASSERT_EQ(digests.size(), expected.size());
    for (std::size_t q = 0; q < digests.size(); ++q) {
      EXPECT_EQ(digests[q], expected[q])
          << "query " << q << " drifted — if intentional, regenerate with "
             "SCPRT_UPDATE_GOLDEN=1 and explain in the PR";
    }
  }

  // Kill/resume: ingest half the trace, drop the writer (commit_every = 1
  // left everything committed), re-open and replay the WHOLE trace — the
  // (cluster, quantum) idempotency set absorbs the overlap and the final
  // answers are bit-identical to the single-pass store's.
  {
    ScopedStoreDir resume_dir("resume");
    {
      auto index = store::LshIndex::Create(resume_dir.path(),
                                           GoldenStoreOptions());
      ASSERT_NE(index, nullptr);
      const std::vector<stream::Message> half(
          trace.messages.begin(),
          trace.messages.begin() + trace.messages.size() / 2);
      IngestIntoStore(trace, half, c.detector_config(), index.get());
    }
    durability::Error error;
    auto index = store::LshIndex::Open(resume_dir.path(),
                                       GoldenStoreOptions(), &error);
    ASSERT_NE(index, nullptr) << error.ToString();
    IngestIntoStore(trace, trace.messages, c.detector_config(), index.get());
    EXPECT_EQ(QueryDigests(*index, queries), digests)
        << "kill/replay resume changed query answers";
  }
}

}  // namespace
}  // namespace scprt
