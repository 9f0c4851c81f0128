// Coverage of remaining public-API surface: report formatting edge cases,
// graph snapshots/Clear, message conservation through the quantizer,
// detector accessors used by checkpointing and the bench harnesses, and
// the durability tier's typed surface (durability/backend.h) — the one
// way to save or restore a detector.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "common/random.h"
#include "detect/report.h"
#include "durability/backend.h"
#include "durability/wal_backend.h"
#include "engine/parallel_detector.h"
#include "graph/graph.h"
#include "stream/quantizer.h"

namespace scprt {
namespace {

TEST(ReportFormattingTest, UnknownKeywordIdsRenderPlaceholders) {
  text::KeywordDictionary dict;
  dict.Intern("known");
  detect::EventSnapshot snap;
  snap.keywords = {0, 999};  // 999 never interned
  snap.rank = 1.5;
  snap.node_count = 2;
  const std::string text = detect::FormatEvent(snap, dict);
  EXPECT_NE(text.find("known"), std::string::npos);
  EXPECT_NE(text.find("kw999"), std::string::npos);
}

TEST(ReportFormattingTest, SpuriousTagAndTruncation) {
  text::KeywordDictionary dict;
  detect::QuantumReport report;
  report.quantum = 7;
  for (int i = 0; i < 15; ++i) {
    detect::EventSnapshot snap;
    snap.keywords = {dict.Intern("kw" + std::to_string(i))};
    snap.likely_spurious = (i == 0);
    report.events.push_back(std::move(snap));
  }
  const std::string text = detect::FormatReport(report, dict, 10);
  EXPECT_NE(text.find("(spurious?)"), std::string::npos);
  EXPECT_NE(text.find("..."), std::string::npos);  // truncated at 10
}

TEST(GraphSurfaceTest, ClearAndSnapshots) {
  graph::DynamicGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddNode(99);
  EXPECT_EQ(g.Nodes().size(), 4u);
  EXPECT_EQ(g.Edges().size(), 2u);
  g.Clear();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.Nodes().empty());
  // Reusable after Clear.
  EXPECT_TRUE(g.AddEdge(5, 6));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(StreamConservationTest, QuantizerPlusWindowLoseNothing) {
  // Every message pushed appears in exactly one emitted quantum, in order.
  Rng rng(88);
  const std::size_t delta = 7;
  stream::Quantizer quantizer(delta);
  std::vector<stream::Message> emitted;
  const std::size_t total = 10 * delta + 3;
  for (std::uint64_t i = 0; i < total; ++i) {
    stream::Message m;
    m.seq = i;
    m.user = static_cast<UserId>(rng.UniformInt(50));
    if (auto q = quantizer.Push(m)) {
      for (const auto& qm : q->messages) emitted.push_back(qm);
    }
  }
  EXPECT_EQ(emitted.size(), 10 * delta);
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i].seq, i);
  }
  EXPECT_EQ(quantizer.pending().size(), 3u);
  auto rest = quantizer.Flush();
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->messages.front().seq, 10 * delta);
}

TEST(DetectorAccessorsTest, ClockAndPendingTrackInput) {
  detect::DetectorConfig config;
  config.quantum_size = 5;
  config.akg.window_length = 2;
  engine::ParallelDetector detector({config, 1}, nullptr);
  stream::Message m;
  m.user = 1;
  m.keywords = {1, 2};
  for (int i = 0; i < 23; ++i) detector.Push(m);
  // 4 full quanta emitted, 3 messages accumulating toward quantum 4.
  EXPECT_EQ(detector.next_quantum_index(), 4);
  EXPECT_EQ(detector.quantizer().pending().size(), 3u);
}

TEST(DetectorAccessorsTest, NoDictionaryDisablesNounFilter) {
  detect::DetectorConfig config;
  config.quantum_size = 6;
  config.akg.high_state_threshold = 3;
  config.akg.ec_threshold = 0.3;
  config.min_rank_margin = 0.0;
  config.require_noun = true;  // no dictionary -> must be ignored
  engine::ParallelDetector detector({config, 1}, nullptr);
  std::vector<stream::Message> msgs;
  for (UserId u = 0; u < 6; ++u) {
    stream::Message m;
    m.user = u;
    m.keywords = {1, 2, 3};
    msgs.push_back(std::move(m));
  }
  std::optional<detect::QuantumReport> report;
  for (const auto& m : msgs) {
    if (auto r = detector.Push(m)) report = r;
  }
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->events.empty());
}

// ------------------------------------------ Durability typed surface -----

TEST(DurabilitySurfaceTest, NamesAndParsersRoundTrip) {
  using durability::FsyncLevel;
  // These spellings are flag/JSON-stable: docs/cli.md and the bench
  // output pin them, so a rename here is a breaking change.
  EXPECT_STREQ(durability::FsyncLevelName(FsyncLevel::kNone), "none");
  EXPECT_STREQ(durability::FsyncLevelName(FsyncLevel::kInterval),
               "interval");
  EXPECT_STREQ(durability::FsyncLevelName(FsyncLevel::kEveryCommit),
               "commit");

  FsyncLevel level = FsyncLevel::kNone;
  EXPECT_TRUE(durability::ParseFsyncLevel("commit", level));
  EXPECT_EQ(level, FsyncLevel::kEveryCommit);
  EXPECT_TRUE(durability::ParseFsyncLevel("interval", level));
  EXPECT_EQ(level, FsyncLevel::kInterval);
  EXPECT_TRUE(durability::ParseFsyncLevel("none", level));
  EXPECT_EQ(level, FsyncLevel::kNone);
  EXPECT_FALSE(durability::ParseFsyncLevel("always", level));

  // Error::ToString carries both the code name and the caller's detail.
  const durability::Error error = durability::MakeError(
      durability::ErrorCode::kRenameFailed, "rename CURRENT");
  EXPECT_NE(error.ToString().find("rename CURRENT"), std::string::npos);
}

TEST(DurabilitySurfaceTest, WalBackendStartsFreshInANewDirectory) {
  durability::BackendOptions options;
  options.directory =
      (std::filesystem::path(::testing::TempDir()) / "surface_backend")
          .string();
  std::filesystem::remove_all(options.directory);
  durability::WalBackend backend(options);
  EXPECT_TRUE(std::filesystem::is_directory(options.directory));
  text::ConcurrentKeywordDictionary dictionary;
  durability::RecoverOptions recover;
  recover.dictionary = &dictionary;
  const durability::RecoverResult result = backend.Recover(recover);
  EXPECT_EQ(result.outcome, durability::RecoverResult::Outcome::kFresh);
  EXPECT_TRUE(result.error.ok());
  EXPECT_EQ(result.engine, nullptr);
}

TEST(DurabilitySurfaceTest, OneShotSaveLoadRoundTripsThroughTypedErrors) {
  text::KeywordDictionary dictionary;
  engine::ParallelDetectorConfig config;
  config.detector.quantum_size = 6;
  config.threads = 1;
  engine::ParallelDetector engine(config, &dictionary);
  stream::Message m;
  m.user = 1;
  m.keywords = {1, 2};
  std::vector<stream::Message> messages(12, m);
  for (const stream::Quantum& quantum :
       stream::SplitIntoQuanta(messages, 6, /*keep_partial=*/false)) {
    engine.ProcessQuantum(quantum);
  }

  std::stringstream out(std::ios::binary | std::ios::in | std::ios::out);
  std::uint64_t checkpoint_id = 0;
  ASSERT_TRUE(durability::SaveSnapshot(engine, out, &checkpoint_id).ok());
  EXPECT_NE(checkpoint_id, 0u);

  durability::Error error;
  auto restored = durability::LoadEngineSnapshot(out, &dictionary,
                                                 /*threads=*/1, nullptr,
                                                 &error);
  ASSERT_NE(restored, nullptr) << error.ToString();
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(restored->next_quantum_index(), engine.next_quantum_index());

  // A garbage stream fails with the typed reason, not a bare false.
  std::stringstream garbage(std::string(64, 'z'));
  EXPECT_EQ(durability::LoadEngineSnapshot(garbage, &dictionary, 1, nullptr,
                                           &error),
            nullptr);
  EXPECT_EQ(error.code, durability::ErrorCode::kBadMagic);
}

}  // namespace
}  // namespace scprt
