// Incremental SCP cluster maintenance under node/edge addition and deletion
// — the paper's primary contribution (Sections 4 and 5).
//
// All operations are *local*: an addition inspects only the O(k^2) pairs of
// edges adjacent to the arriving node/edge (paper Section 4.1); a deletion
// re-derives clusters only inside the affected cluster's own subgraph (the
// paper's cycle check + articulation check, Section 5.3/5.4). No operation
// ever touches graph regions outside the neighborhood / affected clusters,
// which is what makes the detector keep up with a live stream.
//
// Invariant maintained (and the key to Theorem 3's order-independence):
// every cycle of length <= 4 in the graph has all of its edges inside a
// single cluster, and every cluster edge lies on such a cycle within its
// cluster. Under that invariant the cluster set equals the canonical
// offline clustering (cluster/offline.h) of the current graph.

#ifndef SCPRT_CLUSTER_MAINTENANCE_H_
#define SCPRT_CLUSTER_MAINTENANCE_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster_set.h"
#include "common/binary_io.h"
#include "graph/graph.h"

namespace scprt::cluster {

/// Counters exposed for the evaluation section (locality statistics). They
/// are per-process statistics, not saved: a loaded engine counts from zero.
struct MaintenanceStats {
  std::uint64_t edges_added = 0;
  std::uint64_t edges_removed = 0;
  std::uint64_t nodes_removed = 0;
  std::uint64_t cluster_merges = 0;
  std::uint64_t cluster_splits = 0;
  std::uint64_t reclosures = 0;
  /// Edges scanned by re-closures — the paper's "fraction of the nodes of
  /// the original cluster" visited on deletion.
  std::uint64_t reclosure_edges_scanned = 0;
  std::uint64_t short_cycles_found = 0;
};

/// One quantum's structural change to the AKG (akg/akg_builder.h), in
/// application order: nodes_removed (with their incident edges),
/// edges_removed, edges_added.
struct GraphDelta {
  std::vector<graph::NodeId> nodes_removed;
  std::vector<graph::Edge> edges_removed;
  std::vector<graph::Edge> edges_added;
};

/// Owns the graph and its clustering; every mutation goes through here so
/// the two can never diverge.
class ScpMaintainer {
 public:
  ScpMaintainer() = default;

  ScpMaintainer(const ScpMaintainer&) = delete;
  ScpMaintainer& operator=(const ScpMaintainer&) = delete;

  /// Adds edge {a, b} (creating endpoints if needed) and updates clusters:
  /// every new short cycle through the edge is folded into one cluster,
  /// merging any clusters that now share an edge (Lemma 6). Paper Sec 5.1/5.2
  /// — NodeAddition is the batched form of EdgeAddition, so adding a node
  /// with k edges is k calls. Returns false if the edge already existed.
  bool AddEdge(graph::NodeId a, graph::NodeId b);

  /// Removes edge {a, b}; runs the cycle check + split check locally on the
  /// owning cluster (paper Sec 5.4). Returns false if absent.
  bool RemoveEdge(graph::NodeId a, graph::NodeId b);

  /// Removes node `n` with all incident edges; re-derives every affected
  /// cluster locally (paper Sec 5.3, incl. the articulation split of
  /// Figure 6). Returns false if absent.
  bool RemoveNode(graph::NodeId n);

  /// Applies one quantum's delta in its application order. This is the
  /// only way the detector's AKG changes.
  void Apply(const GraphDelta& delta);

  /// Quantum stamp assigned to clusters created from now on.
  void SetClock(QuantumIndex now) { now_ = now; }

  const graph::DynamicGraph& graph() const { return graph_; }
  const ClusterSet& clusters() const { return clusters_; }
  const MaintenanceStats& stats() const { return stats_; }

  /// Cluster edge sets in canonical order (for comparison with
  /// OfflineScpClusters).
  std::vector<std::vector<graph::Edge>> CanonicalClusters() const;

  /// Exhaustive internal consistency check (O(E * k^2)); test use only.
  /// Verifies edge ownership maps, SCP of every cluster, edge-disjointness
  /// and agreement with the canonical offline clustering.
  bool ValidateInvariants() const;

  /// Serializes the clustering in canonical order: cluster ids, birth
  /// stamps and the id counter, so maintenance resumed after a restore
  /// assigns the same ids a never-restarted maintainer would. The graph is
  /// the AKG's edge set, which the AKG builder saves; the clock is set
  /// before every Apply, and the counters are per-process statistics, so
  /// none of them is saved.
  void Save(BinaryWriter& out) const;

  /// Replaces this maintainer's graph with `edges` (the AKG builder's
  /// CorrelatedEdges(); nodes all of whose edges were dropped are not
  /// restored) and its clustering with Save()'s encoding; the clock and
  /// counters are left as they are. Returns false on malformed input
  /// (including cluster edges absent from `edges`); the maintainer is left
  /// empty in that case.
  bool Restore(BinaryReader& in, const std::vector<graph::Edge>& edges);

 private:
  /// Folds all short cycles through existing edge {a, b} into one cluster.
  void AbsorbCyclesThroughEdge(graph::NodeId a, graph::NodeId b);

  /// Recomputes the canonical clustering inside cluster `id`'s subgraph
  /// after deletions; splits/dissolves as needed. A cluster that survives
  /// intact keeps its id; otherwise it is removed and every surviving
  /// fragment (even a lone shrunk one) is created under a fresh id,
  /// keeping only the original `born_at`.
  void RecloseCluster(ClusterId id);

  graph::DynamicGraph graph_;
  ClusterSet clusters_;
  MaintenanceStats stats_;
  QuantumIndex now_ = 0;
};

}  // namespace scprt::cluster

#endif  // SCPRT_CLUSTER_MAINTENANCE_H_
