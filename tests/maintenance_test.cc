// Tests of the incremental SCP cluster maintainer against the paper's
// worked examples (Figures 2, 3, 5 and 6) and the Section 5 algorithms.

#include <gtest/gtest.h>

#include "cluster/maintenance.h"
#include "cluster/offline.h"
#include "graph/bcc.h"

namespace scprt::cluster {
namespace {

using graph::Edge;
using graph::NodeId;

// Convenience: the single live cluster (asserts exactly one).
const Cluster& OnlyCluster(const ScpMaintainer& m) {
  EXPECT_EQ(m.clusters().size(), 1u);
  return *m.clusters().clusters().begin()->second;
}

TEST(MaintainerTest, NoClusterWithoutCycle) {
  ScpMaintainer m;
  m.AddEdge(1, 2);
  m.AddEdge(2, 3);
  m.AddEdge(3, 4);
  EXPECT_EQ(m.clusters().size(), 0u);
  EXPECT_TRUE(m.ValidateInvariants());
}

// Figure 2(b) / rule R2: incoming node n correlates with n1, n2 which share
// an edge -> triangle cluster {n, n1, n2}.
TEST(MaintainerTest, Figure2bTriangleViaR2) {
  ScpMaintainer m;
  const NodeId n = 10, n1 = 1, n2 = 2;
  m.AddEdge(n1, n2);
  m.AddEdge(n, n1);
  EXPECT_EQ(m.clusters().size(), 0u);
  m.AddEdge(n, n2);
  const Cluster& c = OnlyCluster(m);
  EXPECT_EQ(c.node_count(), 3u);
  EXPECT_EQ(c.edge_count(), 3u);
  EXPECT_TRUE(c.ContainsNode(n));
  EXPECT_TRUE(m.ValidateInvariants());
}

// Figure 2(a) / rule R1: n1 and n2 have a common neighbor nc -> 4-node
// cluster {n, n1, n2, nc}.
TEST(MaintainerTest, Figure2aFourCycleViaR1) {
  ScpMaintainer m;
  const NodeId n = 10, n1 = 1, n2 = 2, nc = 3;
  m.AddEdge(n1, nc);
  m.AddEdge(n2, nc);
  m.AddEdge(n, n1);
  EXPECT_EQ(m.clusters().size(), 0u);
  m.AddEdge(n, n2);
  const Cluster& c = OnlyCluster(m);
  EXPECT_EQ(c.node_count(), 4u);
  EXPECT_EQ(c.edge_count(), 4u);
  EXPECT_TRUE(c.ContainsNode(nc));
  EXPECT_TRUE(m.ValidateInvariants());
}

// If the incoming node correlates with only one existing node, nothing
// clusters (Section 4.1: "If the incoming node shows correlation with zero
// or one node, we simply add that node (and edge) in G and do nothing").
TEST(MaintainerTest, SingleEdgeNodeDoesNothing) {
  ScpMaintainer m;
  m.AddEdge(1, 2);
  m.AddEdge(2, 3);
  m.AddEdge(1, 3);  // triangle cluster
  ASSERT_EQ(m.clusters().size(), 1u);
  m.AddEdge(99, 1);  // new node, one edge
  EXPECT_EQ(m.clusters().size(), 1u);
  EXPECT_FALSE(OnlyCluster(m).ContainsNode(99));
  EXPECT_TRUE(m.ValidateInvariants());
}

// Figure 5(a)-style edge addition: new edge (1,2) closes several short
// cycles at once and merges the pre-existing clusters into one (Lemma 6).
TEST(MaintainerTest, EdgeAdditionMergesClusters) {
  ScpMaintainer m;
  // Pre-state: triangle {2,3,4} and triangle {1,4,5}, sharing node 4.
  m.AddEdge(2, 3);
  m.AddEdge(3, 4);
  m.AddEdge(2, 4);
  m.AddEdge(1, 4);
  m.AddEdge(4, 5);
  m.AddEdge(1, 5);
  ASSERT_EQ(m.clusters().size(), 2u);
  // New edge 1-2: triangle (1,2,4) plus 4-cycles (1,5,4,2) and (1,4,3,2).
  m.AddEdge(1, 2);
  const Cluster& c = OnlyCluster(m);
  EXPECT_EQ(c.node_count(), 5u);
  EXPECT_EQ(c.edge_count(), 7u);
  EXPECT_GE(m.stats().cluster_merges, 1u);
  EXPECT_TRUE(m.ValidateInvariants());
}

// Figure 5(b): node n arrives with edges to 1 and 2; via common neighbor 4
// a 4-cycle forms and chains C1 (sharing edge 1-4) and C2 (sharing 2-4)
// into one cluster C4.
TEST(MaintainerTest, Figure5bNodeAdditionMergesTwoClusters) {
  ScpMaintainer m;
  const NodeId n = 10;
  // C1: triangle {1, 3, 4}; C2: triangle {2, 4, 5}.
  m.AddEdge(1, 3);
  m.AddEdge(3, 4);
  m.AddEdge(1, 4);
  m.AddEdge(2, 5);
  m.AddEdge(5, 4);
  m.AddEdge(2, 4);
  ASSERT_EQ(m.clusters().size(), 2u);
  m.AddEdge(n, 1);
  ASSERT_EQ(m.clusters().size(), 2u);
  m.AddEdge(n, 2);  // 4-cycle n-1-4-2 glues everything
  const Cluster& c = OnlyCluster(m);
  EXPECT_EQ(c.node_count(), 6u);
  EXPECT_EQ(c.edge_count(), 8u);
  EXPECT_TRUE(c.ContainsNode(n));
  EXPECT_TRUE(m.ValidateInvariants());
}

// Figure 5(c): when the removed node's cluster retains no short cycle, the
// cluster dissolves entirely.
TEST(MaintainerTest, Figure5cNodeRemovalDissolvesCluster) {
  ScpMaintainer m;
  const NodeId n = 10;
  m.AddEdge(n, 1);
  m.AddEdge(1, 2);
  m.AddEdge(2, 3);
  m.AddEdge(3, n);  // 4-cycle n-1-2-3
  ASSERT_EQ(m.clusters().size(), 1u);
  m.RemoveNode(n);
  EXPECT_EQ(m.clusters().size(), 0u);
  EXPECT_TRUE(m.graph().HasEdge(1, 2));  // graph edges survive unclustered
  EXPECT_TRUE(m.ValidateInvariants());
}

// Figure 5(d): deleting one edge shrinks the cluster to the members still
// on short cycles (cycle check) and expels the rest.
TEST(MaintainerTest, Figure5dEdgeRemovalShrinksCluster) {
  ScpMaintainer m;
  const NodeId n = 10;
  // Triangle {n,3,4} and 4-cycle n-1-2-3 sharing edge (3,n).
  m.SetClock(7);
  m.AddEdge(3, 4);
  m.AddEdge(4, n);
  m.AddEdge(n, 3);
  m.AddEdge(n, 1);
  m.AddEdge(1, 2);
  m.AddEdge(2, 3);
  ASSERT_EQ(m.clusters().size(), 1u);
  ASSERT_EQ(OnlyCluster(m).node_count(), 5u);
  const ClusterId original = OnlyCluster(m).id();
  m.SetClock(9);
  m.RemoveEdge(n, 1);
  const Cluster& c = OnlyCluster(m);
  // The shrunk cluster is re-created: a fresh id, the original birth.
  EXPECT_NE(c.id(), original);
  EXPECT_EQ(c.born_at, 7);
  EXPECT_EQ(c.node_count(), 3u);  // {n, 3, 4}
  EXPECT_TRUE(c.ContainsNode(n));
  EXPECT_TRUE(c.ContainsNode(3));
  EXPECT_TRUE(c.ContainsNode(4));
  EXPECT_FALSE(c.ContainsNode(1));
  EXPECT_FALSE(c.ContainsNode(2));
  EXPECT_TRUE(m.ValidateInvariants());
}

// Figure 6: deleting node 9 splits the cluster at articulation node 3 into
// Cluster 1 = {0,1,2,3,10,11} and Cluster 2 = {3,4,5,6,7,8}.
TEST(MaintainerTest, Figure6ArticulationSplit) {
  ScpMaintainer m;
  // Blob A: 4-cycles (0,1,2,3) and (0,11,10,1) sharing edge 0-1.
  m.AddEdge(0, 1);
  m.AddEdge(1, 2);
  m.AddEdge(2, 3);
  m.AddEdge(3, 0);
  m.AddEdge(0, 11);
  m.AddEdge(11, 10);
  m.AddEdge(10, 1);
  // Blob B: 4-cycles (3,4,5,6) and (3,6,7,8) sharing edge 3-6.
  m.AddEdge(3, 4);
  m.AddEdge(4, 5);
  m.AddEdge(5, 6);
  m.AddEdge(6, 3);
  m.AddEdge(6, 7);
  m.AddEdge(7, 8);
  m.AddEdge(8, 3);
  ASSERT_EQ(m.clusters().size(), 2u);  // blobs share only node 3
  // Node 9 bridges them: 4-cycle 9-2-3-4 uses edge 2-3 (A) and 3-4 (B).
  m.AddEdge(9, 2);
  m.AddEdge(9, 4);
  ASSERT_EQ(m.clusters().size(), 1u);
  ASSERT_EQ(OnlyCluster(m).node_count(), 12u);  // nodes 0..11

  m.RemoveNode(9);
  ASSERT_EQ(m.clusters().size(), 2u);
  // Node 3 sits in both clusters (it is the articulation point).
  EXPECT_EQ(m.clusters().ClusterCountOf(3), 2u);
  for (const auto& [_, cluster] : m.clusters().clusters()) {
    EXPECT_TRUE(cluster->ContainsNode(3));
    EXPECT_TRUE(graph::IsBiconnectedEdgeSet(cluster->SortedEdges()));
  }
  EXPECT_GE(m.stats().cluster_splits, 1u);
  EXPECT_TRUE(m.ValidateInvariants());
}

// Example 2 / Figure 3(b): two clusters merged by two fresh edges between
// them stay one cluster (the paper argues this is desirable).
TEST(MaintainerTest, Figure3bCrossClusterEdgesMerge) {
  ScpMaintainer m;
  // Cluster 1: K4 on {1,2,3,4}; Cluster 2: K4 on {5,6,7,8}.
  const NodeId a[] = {1, 2, 3, 4}, b[] = {5, 6, 7, 8};
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      m.AddEdge(a[i], a[j]);
      m.AddEdge(b[i], b[j]);
    }
  }
  ASSERT_EQ(m.clusters().size(), 2u);
  // Two new edges forming a short cycle across: 2-5 and 3-8? A 4-cycle
  // needs e.g. 2-5, 5-8 (in C2), 8-3, 3-2 (in C1).
  m.AddEdge(2, 5);
  EXPECT_EQ(m.clusters().size(), 2u);  // single cross edge: no short cycle
  m.AddEdge(3, 8);
  const Cluster& c = OnlyCluster(m);
  EXPECT_EQ(c.node_count(), 8u);
  EXPECT_EQ(c.edge_count(), 14u);
  EXPECT_TRUE(m.ValidateInvariants());
}

// Lemma 7 setting: node n with exactly two incident edges whose endpoints
// n1, n2 share a common neighbor nc; deleting n leaves the rest clustered
// when alternate cycles exist.
TEST(MaintainerTest, Lemma7NoSpuriousArticulation) {
  ScpMaintainer m;
  const NodeId n = 10, n1 = 1, n2 = 2, nc = 3, x = 4;
  // 4-cycle n-n1-nc-n2 plus a second 4-cycle n1-x-n2-nc keeping the rest
  // biconnected after n leaves.
  m.AddEdge(n, n1);
  m.AddEdge(n, n2);
  m.AddEdge(n1, nc);
  m.AddEdge(n2, nc);
  m.AddEdge(n1, x);
  m.AddEdge(n2, x);
  ASSERT_EQ(m.clusters().size(), 1u);
  m.RemoveNode(n);
  const Cluster& c = OnlyCluster(m);
  EXPECT_EQ(c.node_count(), 4u);
  EXPECT_EQ(c.edge_count(), 4u);
  EXPECT_TRUE(m.ValidateInvariants());
}

// Cluster ids: merges keep the larger side's id (stable event identity).
TEST(MaintainerTest, MergeKeepsLargerSideId) {
  ScpMaintainer m;
  m.SetClock(5);
  // Large cluster: K4 on {1,2,3,4} (6 edges).
  for (NodeId i = 1; i <= 4; ++i) {
    for (NodeId j = i + 1; j <= 4; ++j) m.AddEdge(i, j);
  }
  const ClusterId big = m.clusters().clusters().begin()->first;
  m.SetClock(9);
  // Small cluster: triangle {7,8,9}.
  m.AddEdge(7, 8);
  m.AddEdge(8, 9);
  m.AddEdge(7, 9);
  ASSERT_EQ(m.clusters().size(), 2u);
  // Glue with a 4-cycle 1-2-8-7 that uses edge (1,2) of the big cluster and
  // edge (7,8) of the small one, forcing a Lemma 6 merge.
  m.AddEdge(1, 7);  // no short cycle yet
  ASSERT_EQ(m.clusters().size(), 2u);
  m.AddEdge(2, 8);
  ASSERT_EQ(m.clusters().size(), 1u);
  const Cluster& c = OnlyCluster(m);
  EXPECT_EQ(c.id(), big);
  EXPECT_EQ(c.born_at, 5);
  EXPECT_EQ(c.node_count(), 7u);
  EXPECT_EQ(c.edge_count(), 11u);
  EXPECT_TRUE(m.ValidateInvariants());
}

// Removing and re-adding the same edge restores the same clustering.
TEST(MaintainerTest, RemoveReaddIsIdempotent) {
  ScpMaintainer m;
  m.AddEdge(1, 2);
  m.AddEdge(2, 3);
  m.AddEdge(3, 4);
  m.AddEdge(4, 1);
  m.AddEdge(1, 3);
  const auto before = m.CanonicalClusters();
  m.RemoveEdge(1, 3);
  m.AddEdge(1, 3);
  EXPECT_EQ(m.CanonicalClusters(), before);
  EXPECT_TRUE(m.ValidateInvariants());
}

TEST(MaintainerTest, ReturnValuesOnDuplicatesAndAbsents) {
  ScpMaintainer m;
  EXPECT_TRUE(m.AddEdge(1, 2));
  EXPECT_FALSE(m.AddEdge(1, 2));
  EXPECT_FALSE(m.RemoveEdge(5, 6));
  EXPECT_FALSE(m.RemoveNode(99));
  EXPECT_TRUE(m.RemoveNode(2));
  EXPECT_FALSE(m.RemoveEdge(1, 2));
}

// Apply is the three updates in their application order: node evictions,
// then edge drops, then edge adds.
TEST(MaintainerTest, ApplyMatchesStepwiseUpdates) {
  ScpMaintainer stepwise, applied;
  GraphDelta first;
  first.edges_added = {Edge::Of(1, 2), Edge::Of(2, 3), Edge::Of(1, 3),
                       Edge::Of(3, 4), Edge::Of(1, 4), Edge::Of(4, 5)};
  for (const Edge& e : first.edges_added) stepwise.AddEdge(e.u, e.v);
  applied.Apply(first);
  ASSERT_EQ(applied.CanonicalClusters(), stepwise.CanonicalClusters());

  // Evicting 4 drops {3,4}, {1,4} and {4,5}; {1,2} is dropped and then
  // re-closed through 6.
  GraphDelta second;
  second.nodes_removed = {4};
  second.edges_removed = {Edge::Of(1, 2)};
  second.edges_added = {Edge::Of(1, 6), Edge::Of(2, 6), Edge::Of(1, 2)};
  stepwise.RemoveNode(4);
  stepwise.RemoveEdge(1, 2);
  for (const Edge& e : second.edges_added) stepwise.AddEdge(e.u, e.v);
  applied.Apply(second);
  EXPECT_EQ(applied.CanonicalClusters(), stepwise.CanonicalClusters());
  EXPECT_EQ(applied.graph().edge_count(), 5u);
  EXPECT_FALSE(applied.graph().HasNode(4));
  EXPECT_EQ(applied.stats().edges_removed, stepwise.stats().edges_removed);
  EXPECT_TRUE(applied.ValidateInvariants());
}

// Deleting every node one by one always ends with an empty clustering and
// never violates invariants.
TEST(MaintainerTest, TearDownNodeByNode) {
  ScpMaintainer m;
  // Two glued K4s.
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) {
      m.AddEdge(i, j);
      m.AddEdge(i + 3, j + 3);  // {3,4,5,6}, overlapping node 3
    }
  }
  for (NodeId n = 0; n < 7; ++n) {
    m.RemoveNode(n);
    EXPECT_TRUE(m.ValidateInvariants()) << "after removing " << n;
  }
  EXPECT_EQ(m.clusters().size(), 0u);
  EXPECT_EQ(m.graph().node_count(), 0u);
}

}  // namespace
}  // namespace scprt::cluster
