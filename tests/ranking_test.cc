// Tests for rank/: the Section 6 rank function and the spurious-event
// tracker of Section 7.2.2.

#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "rank/rank_tracker.h"
#include "rank/ranking.h"

namespace scprt::rank {
namespace {

using cluster::Cluster;
using graph::Edge;

// The rank of `c` with every member weighing `weight` and every edge at
// `ec`.
double UniformRank(const Cluster& c, double ec, double weight) {
  const std::vector<double> weights(c.node_count(), weight);
  const std::vector<EdgeTerm> edges(c.edge_count(),
                                    EdgeTerm{weight, weight, ec});
  return ClusterRank(weights, edges);
}

TEST(RankingTest, TriangleRankMatchesFormula) {
  Cluster c(1);
  c.InsertEdge(Edge::Of(1, 2));
  c.InsertEdge(Edge::Of(2, 3));
  c.InsertEdge(Edge::Of(1, 3));
  // rank = (1/3) * [3*4 + 3 edges * (4+4)*0.5] = (12 + 12) / 3 = 8.
  EXPECT_DOUBLE_EQ(UniformRank(c, 0.5, 4.0), 8.0);
}

TEST(RankingTest, PerNodeWeightsAndPerEdgeEc) {
  // Triangle 1-2-3 with w = (1, 2, 3): each edge weighs its own endpoints.
  const std::vector<double> weights = {1.0, 2.0, 3.0};
  const std::vector<EdgeTerm> edges = {
      {1.0, 2.0, 0.5}, {1.0, 3.0, 0.25}, {2.0, 3.0, 1.0}};
  // (6 + 3*0.5 + 4*0.25 + 5*1) / 3 = 13.5 / 3.
  EXPECT_DOUBLE_EQ(ClusterRank(weights, edges), 4.5);
}

TEST(RankingTest, HigherCorrelationHigherRank) {
  Cluster c(1);
  c.InsertEdge(Edge::Of(1, 2));
  c.InsertEdge(Edge::Of(2, 3));
  c.InsertEdge(Edge::Of(1, 3));
  EXPECT_GT(UniformRank(c, 0.8, 4.0), UniformRank(c, 0.2, 4.0));
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
  EXPECT_GT(UniformRank(dense, 0.4, 5.0), UniformRank(sparse, 0.4, 5.0));
}

TEST(RankingTest, HigherSupportHigherRank) {
  Cluster c(1);
  c.InsertEdge(Edge::Of(1, 2));
  c.InsertEdge(Edge::Of(2, 3));
  c.InsertEdge(Edge::Of(1, 3));
  EXPECT_GT(UniformRank(c, 0.3, 40.0), UniformRank(c, 0.3, 4.0));
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
  EXPECT_GT(UniformRank(small, 0.9, 4.0), UniformRank(big, 0.1, 4.0));
}

TEST(RankingTest, EmptyClusterRankIsZero) {
  EXPECT_DOUBLE_EQ(UniformRank(Cluster(1), 1.0, 1.0), 0.0);
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
