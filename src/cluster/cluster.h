// A discovered cluster (an aMQC in the paper's terminology): a set of edges,
// every one of which lies on a cycle of length <= 4 inside the cluster.
// Clusters are pairwise edge-disjoint; two clusters may share a node.

#ifndef SCPRT_CLUSTER_CLUSTER_H_
#define SCPRT_CLUSTER_CLUSTER_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace scprt::cluster {

using graph::Edge;
using graph::EdgeHash;
using graph::NodeId;

/// One cluster. Node membership is derived from the edge set (a node belongs
/// iff it has at least one cluster edge).
class Cluster {
 public:
  explicit Cluster(ClusterId id) : id_(id) {}

  ClusterId id() const { return id_; }

  /// Number of member nodes (the paper's cluster size N).
  std::size_t node_count() const { return node_degree_.size(); }

  /// Number of member edges (the density ingredient of the rank function).
  std::size_t edge_count() const { return edges_.size(); }

  bool ContainsNode(NodeId n) const { return node_degree_.count(n) > 0; }

  /// Cluster-internal degree of `n` (0 if not a member).
  std::size_t DegreeOf(NodeId n) const;

  /// Inserts an edge; returns false if already present.
  bool InsertEdge(const Edge& e);

  /// Erases an edge; returns false if absent. Nodes whose last cluster edge
  /// disappears leave the cluster.
  bool EraseEdge(const Edge& e);

  /// Member edges (unordered).
  const std::unordered_set<Edge, EdgeHash>& edges() const { return edges_; }

  /// Member nodes with their internal degrees (unordered).
  const std::unordered_map<NodeId, std::uint32_t>& node_degrees() const {
    return node_degree_;
  }

  /// Sorted node list (stable output for reports and tests).
  std::vector<NodeId> SortedNodes() const;

  /// Sorted edge list.
  std::vector<Edge> SortedEdges() const;

  /// Quantum at which the cluster was first formed (set by the maintainer's
  /// client; used for event lead-time reporting).
  QuantumIndex born_at = 0;

 private:
  ClusterId id_;
  std::unordered_set<Edge, EdgeHash> edges_;
  std::unordered_map<NodeId, std::uint32_t> node_degree_;
};

}  // namespace scprt::cluster

#endif  // SCPRT_CLUSTER_CLUSTER_H_
