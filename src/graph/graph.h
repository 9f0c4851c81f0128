// Dynamic undirected graph with O(deg) updates and O(log deg) adjacency
// tests. This is the representation of the AKG (and, in tests/benchmarks,
// the CKG): node ids are KeywordIds; average degree in the paper's traces is
// < 6, so sorted adjacency vectors beat hash sets on both memory and speed.
// A graph is never serialized: a snapshot writes the AKG's edge list once
// (akg/akg_builder.h), and a load rebuilds the maintainer's graph from it.

#ifndef SCPRT_GRAPH_GRAPH_H_
#define SCPRT_GRAPH_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace scprt::graph {

/// Graph node id (a keyword in the detector's use).
using NodeId = KeywordId;

/// A normalized undirected edge: u < v always.
struct Edge {
  NodeId u;
  NodeId v;

  /// Builds a normalized edge from any endpoint order. a != b required.
  static Edge Of(NodeId a, NodeId b) {
    return a < b ? Edge{a, b} : Edge{b, a};
  }

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Hash functor for Edge.
struct EdgeHash {
  std::size_t operator()(const Edge& e) const {
    return static_cast<std::size_t>(HashCombine(SplitMix64(e.u), e.v));
  }
};

/// Undirected dynamic graph. Self-loops and parallel edges are rejected.
class DynamicGraph {
 public:
  DynamicGraph() = default;

  /// Adds an isolated node. Returns false if it already exists.
  bool AddNode(NodeId n);

  /// Removes `n` and all incident edges. Returns false if absent.
  bool RemoveNode(NodeId n);

  /// Adds edge {a, b}, creating missing endpoints. Returns false if the edge
  /// already exists or a == b.
  bool AddEdge(NodeId a, NodeId b);

  /// Removes edge {a, b}; endpoints stay even if isolated. Returns false if
  /// the edge does not exist.
  bool RemoveEdge(NodeId a, NodeId b);

  /// True if node exists.
  bool HasNode(NodeId n) const { return adjacency_.count(n) > 0; }

  /// True if edge {a, b} exists.
  bool HasEdge(NodeId a, NodeId b) const;

  /// Sorted neighbors of `n`. Node must exist.
  const std::vector<NodeId>& Neighbors(NodeId n) const;

  /// Degree of `n`; 0 if the node does not exist.
  std::size_t Degree(NodeId n) const;

  /// Nodes adjacent to both `a` and `b` (sorted-merge intersection).
  std::vector<NodeId> CommonNeighbors(NodeId a, NodeId b) const;

  /// True if `a` and `b` share at least one neighbor.
  bool HaveCommonNeighbor(NodeId a, NodeId b) const;

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Snapshot of all node ids (unordered).
  std::vector<NodeId> Nodes() const;

  /// Snapshot of all normalized edges (unordered).
  std::vector<Edge> Edges() const;

  /// Removes everything.
  void Clear();

 private:
  std::unordered_map<NodeId, std::vector<NodeId>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace scprt::graph

#endif  // SCPRT_GRAPH_GRAPH_H_
