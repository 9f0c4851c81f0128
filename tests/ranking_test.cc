// Tests for rank/: the Section 6 rank function and the spurious-event
// tracker of Section 7.2.2.

#include <gtest/gtest.h>

#include "rank/rank_tracker.h"
#include "rank/ranking.h"

namespace scprt::rank {
namespace {

using cluster::Cluster;
using graph::Edge;

TEST(RankingTest, TriangleRankMatchesFormula) {
  Cluster c(1);
  c.InsertEdge(Edge::Of(1, 2));
  c.InsertEdge(Edge::Of(2, 3));
  c.InsertEdge(Edge::Of(1, 3));
  const EcFn ec = [](const Edge&) { return 0.5; };
  const WeightFn weight = [](graph::NodeId) { return 4.0; };
  // rank = (1/3) * [3*4 + 3 edges * (4+4)*0.5] = (12 + 12) / 3 = 8.
  EXPECT_DOUBLE_EQ(ClusterRank(c, ec, weight), 8.0);
}

TEST(RankingTest, HigherCorrelationHigherRank) {
  Cluster c(1);
  c.InsertEdge(Edge::Of(1, 2));
  c.InsertEdge(Edge::Of(2, 3));
  c.InsertEdge(Edge::Of(1, 3));
  const WeightFn weight = [](graph::NodeId) { return 4.0; };
  const double low =
      ClusterRank(c, [](const Edge&) { return 0.2; }, weight);
  const double high =
      ClusterRank(c, [](const Edge&) { return 0.8; }, weight);
  EXPECT_GT(high, low);
}

TEST(RankingTest, DenserClusterRanksHigher) {
  // Same 4 nodes and weights; C4 vs K4.
  Cluster sparse(1);
  sparse.InsertEdge(Edge::Of(1, 2));
  sparse.InsertEdge(Edge::Of(2, 3));
  sparse.InsertEdge(Edge::Of(3, 4));
  sparse.InsertEdge(Edge::Of(1, 4));
  Cluster dense(2);
  for (graph::NodeId i = 1; i <= 4; ++i) {
    for (graph::NodeId j = i + 1; j <= 4; ++j) {
      dense.InsertEdge(Edge::Of(i, j));
    }
  }
  const EcFn ec = [](const Edge&) { return 0.4; };
  const WeightFn weight = [](graph::NodeId) { return 5.0; };
  EXPECT_GT(ClusterRank(dense, ec, weight), ClusterRank(sparse, ec, weight));
}

TEST(RankingTest, HigherSupportHigherRank) {
  Cluster c(1);
  c.InsertEdge(Edge::Of(1, 2));
  c.InsertEdge(Edge::Of(2, 3));
  c.InsertEdge(Edge::Of(1, 3));
  const EcFn ec = [](const Edge&) { return 0.3; };
  const double weak = ClusterRank(c, ec, [](graph::NodeId) { return 4.0; });
  const double strong =
      ClusterRank(c, ec, [](graph::NodeId) { return 40.0; });
  EXPECT_GT(strong, weak);
}

TEST(RankingTest, NormalizationStopsMonotonicSizeGrowth) {
  // A big sparse cluster must not outrank a small dense one merely by size.
  Cluster small(1);
  small.InsertEdge(Edge::Of(1, 2));
  small.InsertEdge(Edge::Of(2, 3));
  small.InsertEdge(Edge::Of(1, 3));
  Cluster big(2);
  for (graph::NodeId i = 0; i < 20; ++i) {
    big.InsertEdge(Edge::Of(i, (i + 1) % 20));
  }
  const WeightFn weight = [](graph::NodeId) { return 4.0; };
  const double small_rank =
      ClusterRank(small, [](const Edge&) { return 0.9; }, weight);
  const double big_rank =
      ClusterRank(big, [](const Edge&) { return 0.1; }, weight);
  EXPECT_GT(small_rank, big_rank);
}

TEST(RankingTest, EmptyClusterRankIsZero) {
  Cluster c(1);
  EXPECT_DOUBLE_EQ(ClusterRank(
                       c, [](const Edge&) { return 1.0; },
                       [](graph::NodeId) { return 1.0; }),
                   0.0);
}

TEST(RankingTest, MinRankThreshold) {
  // theta * (1 + 2 gamma).
  EXPECT_DOUBLE_EQ(MinRankThreshold(4, 0.20), 4.0 * 1.4);
  EXPECT_DOUBLE_EQ(MinRankThreshold(4, 0.20, 0.5), 2.0 * 1.4);
  EXPECT_DOUBLE_EQ(MinRankThreshold(8, 0.10), 8.0 * 1.2);
}

// --- RankTracker ---

TEST(RankTrackerTest, TooLittleHistoryIsNotSpurious) {
  RankTracker tracker;
  tracker.Observe(1, {0, 10.0, 4});
  tracker.Observe(1, {1, 8.0, 4});
  EXPECT_FALSE(tracker.IsLikelySpurious(1));
}

TEST(RankTrackerTest, MonotonicDecayWithoutGrowthIsSpurious) {
  RankTracker tracker;
  tracker.Observe(1, {0, 10.0, 4});
  tracker.Observe(1, {1, 8.0, 4});
  tracker.Observe(1, {2, 5.0, 4});
  EXPECT_TRUE(tracker.IsLikelySpurious(1));
}

TEST(RankTrackerTest, GrowingClusterIsNotSpurious) {
  RankTracker tracker;
  tracker.Observe(1, {0, 10.0, 4});
  tracker.Observe(1, {1, 8.0, 5});  // keyword joined: evolving event
  tracker.Observe(1, {2, 5.0, 5});
  EXPECT_FALSE(tracker.IsLikelySpurious(1));
}

TEST(RankTrackerTest, NonMonotonicRankIsNotSpurious) {
  RankTracker tracker;
  tracker.Observe(1, {0, 10.0, 4});
  tracker.Observe(1, {1, 8.0, 4});
  tracker.Observe(1, {2, 9.0, 4});  // build-up/wind-down wobble
  EXPECT_FALSE(tracker.IsLikelySpurious(1));
}

TEST(RankTrackerTest, ForgetDropsHistory) {
  RankTracker tracker;
  tracker.Observe(1, {0, 10.0, 4});
  EXPECT_NE(tracker.HistoryOf(1), nullptr);
  EXPECT_EQ(tracker.tracked(), 1u);
  tracker.Forget(1);
  EXPECT_EQ(tracker.HistoryOf(1), nullptr);
  EXPECT_FALSE(tracker.IsLikelySpurious(1));
}

TEST(RankTrackerTest, HistoryIsBounded) {
  RankTracker tracker;
  constexpr int kObservations = 2 * RankTracker::kMaxHistory + 4;
  for (int i = 0; i < kObservations; ++i) {
    tracker.Observe(7, {i, static_cast<double>(i), 3});
  }
  ASSERT_NE(tracker.HistoryOf(7), nullptr);
  EXPECT_EQ(tracker.HistoryOf(7)->size(), RankTracker::kMaxHistory);
  // The ring keeps the newest observations.
  EXPECT_EQ(tracker.HistoryOf(7)->front().quantum,
            kObservations - static_cast<int>(RankTracker::kMaxHistory));
  EXPECT_EQ(tracker.TrackedIds(), std::vector<ClusterId>{7});
}

}  // namespace
}  // namespace scprt::rank
