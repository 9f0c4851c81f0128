// Tests for detect/postprocess.h (story correlation + spurious
// suppression) and text/synonyms.h (pre-processing).

#include <sstream>

#include <gtest/gtest.h>

#include "detect/postprocess.h"
#include "text/synonyms.h"

namespace scprt::detect {
namespace {

EventSnapshot Snap(ClusterId id, std::vector<KeywordId> kws, double rank,
                   QuantumIndex born, bool spurious = false) {
  EventSnapshot s;
  s.cluster_id = id;
  s.keywords = std::move(kws);
  s.rank = rank;
  s.born_at = born;
  s.likely_spurious = spurious;
  return s;
}

TEST(CorrelateEventsTest, OverlappingKeywordsSameStory) {
  std::vector<EventSnapshot> events = {
      Snap(1, {10, 11, 12, 13}, 50.0, 5),
      Snap(2, {12, 13, 14, 15}, 40.0, 7),  // Jaccard 2/6 = 0.33 with event 1
      Snap(3, {90, 91, 92}, 30.0, 6),
  };
  const auto stories = CorrelateEvents(events);
  ASSERT_EQ(stories.size(), 2u);
  // Highest-rank story first; its members rank-descending.
  EXPECT_EQ(stories[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(stories[0].rank, 50.0);
  EXPECT_EQ(stories[1].members, (std::vector<std::size_t>{2}));
}

TEST(CorrelateEventsTest, TemporalGapBlocksCorrelation) {
  std::vector<EventSnapshot> events = {
      Snap(1, {10, 11, 12, 13}, 50.0, 5),
      Snap(2, {10, 11, 12, 13}, 40.0, 50),  // same words, weeks apart
  };
  const auto stories = CorrelateEvents(events);
  EXPECT_EQ(stories.size(), 2u);
}

TEST(CorrelateEventsTest, TransitiveGrouping) {
  // A~B and B~C but A!~C: one story via transitivity.
  std::vector<EventSnapshot> events = {
      Snap(1, {1, 2, 3, 4}, 10.0, 0),
      Snap(2, {3, 4, 5, 6}, 20.0, 1),
      Snap(3, {5, 6, 7, 8}, 30.0, 2),
  };
  const auto stories = CorrelateEvents(events);
  ASSERT_EQ(stories.size(), 1u);
  EXPECT_EQ(stories[0].members, (std::vector<std::size_t>{2, 1, 0}));
}

TEST(CorrelateEventsTest, EmptyInput) {
  EXPECT_TRUE(CorrelateEvents({}).empty());
}

TEST(SpuriousSuppressorTest, SuppressesAfterPatience) {
  SpuriousSuppressor suppressor;
  std::vector<EventSnapshot> events = {Snap(1, {1, 2, 3}, 9.0, 0, true)};
  // Spurious observations short of the patience: still shown.
  for (int i = 1; i < SpuriousSuppressor::kPatience; ++i) {
    EXPECT_EQ(suppressor.Filter(events).size(), 1u) << "observation " << i;
    EXPECT_EQ(suppressor.suppressed_count(), 0u);
  }
  // The kPatience-th consecutive one: suppressed, and it stays so.
  EXPECT_TRUE(suppressor.Filter(events).empty());
  EXPECT_EQ(suppressor.suppressed_count(), 1u);
  EXPECT_TRUE(suppressor.Filter(events).empty());
}

TEST(SpuriousSuppressorTest, FlagClearingResetsStreak) {
  SpuriousSuppressor suppressor;
  std::vector<EventSnapshot> spurious = {Snap(1, {1, 2, 3}, 9.0, 0, true)};
  std::vector<EventSnapshot> healthy = {Snap(1, {1, 2, 3}, 9.0, 0, false)};
  for (int i = 1; i < SpuriousSuppressor::kPatience; ++i) {
    suppressor.Filter(spurious);
  }
  suppressor.Filter(healthy);  // event came back to life
  EXPECT_EQ(suppressor.Filter(spurious).size(), 1u);  // streak restarted
}

TEST(SpuriousSuppressorTest, IndependentPerCluster) {
  SpuriousSuppressor suppressor;
  std::vector<EventSnapshot> events = {
      Snap(1, {1, 2, 3}, 9.0, 0, true),
      Snap(2, {4, 5, 6}, 8.0, 0, false),
  };
  std::vector<std::size_t> shown;
  for (int i = 0; i < SpuriousSuppressor::kPatience; ++i) {
    shown = suppressor.Filter(events);
  }
  ASSERT_EQ(shown.size(), 1u);
  EXPECT_EQ(shown[0], 1u);
}

}  // namespace
}  // namespace scprt::detect

namespace scprt::text {
namespace {

TEST(SynonymTableTest, GroupMapping) {
  SynonymTable table;
  EXPECT_EQ(table.AddGroup({"earthquake", "quake", "temblor"}), 2u);
  EXPECT_EQ(table.Canonical("quake"), "earthquake");
  EXPECT_EQ(table.Canonical("temblor"), "earthquake");
  EXPECT_EQ(table.Canonical("earthquake"), "earthquake");
  EXPECT_EQ(table.Canonical("unrelated"), "unrelated");
  EXPECT_TRUE(table.IsAlias("quake"));
  EXPECT_FALSE(table.IsAlias("earthquake"));
}

TEST(SynonymTableTest, FirstMappingWins) {
  SynonymTable table;
  table.AddGroup({"big", "huge"});
  table.AddGroup({"large", "huge"});  // "huge" already mapped
  EXPECT_EQ(table.Canonical("huge"), "big");
}

TEST(SynonymTableTest, LoadFromStream) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "earthquake quake temblor\n"
      "storm tempest\n");
  SynonymTable table;
  ASSERT_TRUE(table.Load(in));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Canonical("tempest"), "storm");
}

TEST(SynonymTableTest, SingletonGroupIgnored) {
  SynonymTable table;
  EXPECT_EQ(table.AddGroup({"alone"}), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(SynonymTableTest, MissingFileFails) {
  SynonymTable table;
  EXPECT_FALSE(table.LoadFile("/nonexistent/synonyms.txt"));
}

}  // namespace
}  // namespace scprt::text
