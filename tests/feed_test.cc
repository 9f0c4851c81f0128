// Tests for detect/feed.h — exactly-once story delivery.

#include <gtest/gtest.h>

#include "detect/feed.h"
#include "engine/parallel_detector.h"
#include "stream/synthetic.h"

namespace scprt::detect {
namespace {

EventSnapshot Snap(ClusterId id, std::vector<KeywordId> kws, double rank,
                   QuantumIndex born, bool newly, bool spurious = false) {
  EventSnapshot s;
  s.cluster_id = id;
  s.keywords = std::move(kws);
  s.rank = rank;
  s.born_at = born;
  s.newly_reported = newly;
  s.likely_spurious = spurious;
  return s;
}

QuantumReport Report(QuantumIndex q, std::vector<EventSnapshot> events) {
  QuantumReport r;
  r.quantum = q;
  r.events = std::move(events);
  return r;
}

TEST(EventFeedTest, DeliversNewStoryOnce) {
  EventFeed feed;
  auto items =
      feed.Consume(Report(1, {Snap(1, {10, 11, 12}, 20.0, 1, true)}));
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].lead.cluster_id, 1u);
  EXPECT_EQ(feed.delivered_count(), 1u);
  // Same cluster again, no longer new: nothing delivered.
  items = feed.Consume(Report(2, {Snap(1, {10, 11, 12}, 22.0, 1, false)}));
  EXPECT_TRUE(items.empty());
}

TEST(EventFeedTest, DedupesRebornCluster) {
  EventFeed feed;
  feed.Consume(Report(1, {Snap(1, {10, 11, 12, 13}, 20.0, 1, true)}));
  // A split/restore re-announces nearly the same keywords under a new id.
  const auto items =
      feed.Consume(Report(3, {Snap(9, {10, 11, 12}, 18.0, 3, true)}));
  EXPECT_TRUE(items.empty());
  EXPECT_EQ(feed.delivered_count(), 1u);
}

TEST(EventFeedTest, DedupeExpiresWithHorizon) {
  FeedConfig config;
  config.dedupe_horizon = 5;
  EventFeed feed(config);
  feed.Consume(Report(1, {Snap(1, {10, 11, 12}, 20.0, 1, true)}));
  const auto items =
      feed.Consume(Report(10, {Snap(9, {10, 11, 12}, 18.0, 10, true)}));
  EXPECT_EQ(items.size(), 1u);  // old enough to be a fresh occurrence
}

TEST(EventFeedTest, CorrelatedClustersBecomeOneStory) {
  EventFeed feed;
  const auto items = feed.Consume(Report(
      1, {Snap(1, {10, 11, 12, 13}, 30.0, 1, true),
          Snap(2, {12, 13, 14, 15}, 20.0, 1, true),
          Snap(3, {90, 91, 92}, 10.0, 1, true)}));
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].lead.cluster_id, 1u);
  ASSERT_EQ(items[0].related.size(), 1u);
  EXPECT_EQ(items[0].related[0].cluster_id, 2u);
  EXPECT_EQ(items[1].lead.cluster_id, 3u);
}

TEST(EventFeedTest, SuppressesPersistentlySpurious) {
  FeedConfig config;
  config.spurious_patience = 2;
  EventFeed feed(config);
  // Spurious from the start but still new on first sight: shown once.
  auto items =
      feed.Consume(Report(1, {Snap(1, {1, 2, 3}, 9.0, 1, true, true)}));
  EXPECT_EQ(items.size(), 1u);
  feed.Consume(Report(2, {Snap(1, {1, 2, 3}, 8.0, 1, false, true)}));
  EXPECT_EQ(feed.suppressed_count(), 1u);
}

TEST(EventFeedTest, EmptyReports) {
  EventFeed feed;
  EXPECT_TRUE(feed.Consume(Report(1, {})).empty());
  EXPECT_EQ(feed.delivered_count(), 0u);
}

// Property: across a whole end-to-end run, no two delivered leads within
// the dedupe horizon have keyword Jaccard above the dedupe threshold.
TEST(EventFeedTest, DedupeInvariantOnRealRun) {
  stream::SyntheticConfig config;
  config.seed = 21;
  config.num_messages = 25'000;
  config.num_events = 6;
  const stream::SyntheticTrace trace = stream::GenerateSyntheticTrace(config);
  DetectorConfig dconfig;
  dconfig.quantum_size = 120;
  dconfig.akg.window_length = 15;
  engine::ParallelDetector detector({dconfig}, &trace.dictionary);
  FeedConfig fconfig;
  EventFeed feed(fconfig);

  std::vector<FeedItem> delivered;
  for (const stream::Message& m : trace.messages) {
    if (auto report = detector.Push(m)) {
      for (auto& item : feed.Consume(*report)) {
        delivered.push_back(std::move(item));
      }
    }
  }
  ASSERT_GT(delivered.size(), 2u);
  auto jaccard = [](const std::vector<KeywordId>& a,
                    const std::vector<KeywordId>& b) {
    std::size_t i = 0, j = 0, both = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] == b[j]) {
        ++both, ++i, ++j;
      } else if (a[i] < b[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return static_cast<double>(both) /
           static_cast<double>(a.size() + b.size() - both);
  };
  for (std::size_t x = 0; x < delivered.size(); ++x) {
    for (std::size_t y = x + 1; y < delivered.size(); ++y) {
      if (delivered[y].quantum - delivered[x].quantum >
          fconfig.dedupe_horizon) {
        continue;
      }
      EXPECT_LT(jaccard(delivered[x].lead.keywords,
                        delivered[y].lead.keywords),
                fconfig.dedupe_jaccard)
          << "items at quanta " << delivered[x].quantum << " and "
          << delivered[y].quantum;
    }
  }
}

// The feed's exactly-once state survives a Save/Restore round trip: a
// restored feed suppresses exactly what the original would have.
TEST(EventFeedTest, SaveRestoreKeepsExactlyOnceState) {
  EventFeed feed;
  feed.Consume(Report(1, {Snap(1, {10, 11, 12, 13}, 20.0, 1, true)}));
  feed.Consume(Report(2, {Snap(2, {40, 41, 42}, 15.0, 2, true)}));
  ASSERT_EQ(feed.delivered_count(), 2u);

  BinaryWriter snapshot;
  feed.Save(snapshot);
  EventFeed restored;
  BinaryReader reader(snapshot.data());
  ASSERT_TRUE(restored.Restore(reader));
  EXPECT_EQ(restored.delivered_count(), 2u);

  // Near-duplicates of both delivered stories stay deduped; a genuinely
  // new story is delivered. Both feeds agree item for item.
  const QuantumReport next =
      Report(3, {Snap(9, {10, 11, 12}, 18.0, 3, true),
                 Snap(10, {70, 71, 72}, 12.0, 3, true)});
  const auto original_items = feed.Consume(next);
  const auto restored_items = restored.Consume(next);
  ASSERT_EQ(original_items.size(), restored_items.size());
  ASSERT_EQ(restored_items.size(), 1u);
  EXPECT_EQ(restored_items[0].lead.cluster_id, 10u);

  // Corrupt snapshots are rejected and leave the feed empty.
  std::string corrupt = snapshot.data();
  corrupt.resize(corrupt.size() / 2);
  EventFeed rejected;
  BinaryReader corrupt_reader(corrupt);
  EXPECT_FALSE(rejected.Restore(corrupt_reader));
  EXPECT_EQ(rejected.delivered_count(), 0u);
}

TEST(EventFeedTest, DeliveryHookFiresOncePerItemInOrder) {
  EventFeed feed;
  std::vector<ClusterId> seen;
  feed.set_delivery_hook(
      [&seen](const FeedItem& item) { seen.push_back(item.lead.cluster_id); });

  auto items = feed.Consume(
      Report(1, {Snap(1, {10, 11, 12}, 20.0, 1, true),
                 Snap(2, {40, 41, 42}, 15.0, 1, true)}));
  ASSERT_EQ(items.size(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], items[0].lead.cluster_id);
  EXPECT_EQ(seen[1], items[1].lead.cluster_id);

  // A re-announcement is not delivered, so the hook stays quiet...
  feed.Consume(Report(2, {Snap(1, {10, 11, 12}, 22.0, 1, false)}));
  EXPECT_EQ(seen.size(), 2u);
  // ...and detaching stops it entirely.
  feed.set_delivery_hook(nullptr);
  feed.Consume(Report(3, {Snap(7, {70, 71, 72}, 12.0, 3, true)}));
  EXPECT_EQ(seen.size(), 2u);
}

}  // namespace
}  // namespace scprt::detect
