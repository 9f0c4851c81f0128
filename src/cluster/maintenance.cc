#include "cluster/maintenance.h"

#include <algorithm>
#include <unordered_set>

#include "cluster/offline.h"
#include "cluster/scp.h"
#include "common/check.h"
#include "graph/short_cycle.h"

namespace scprt::cluster {

using graph::DynamicGraph;
using graph::Edge;
using graph::NodeId;
using graph::ShortCycle;

bool ScpMaintainer::AddEdge(NodeId a, NodeId b) {
  if (!graph_.AddEdge(a, b)) return false;
  ++stats_.edges_added;
  AbsorbCyclesThroughEdge(a, b);
  return true;
}

void ScpMaintainer::AbsorbCyclesThroughEdge(NodeId a, NodeId b) {
  const std::vector<ShortCycle> cycles =
      graph::ShortCyclesThroughEdge(graph_, a, b);
  if (cycles.empty()) return;  // R1/R2 fail: edge stays unclustered.
  stats_.short_cycles_found += cycles.size();

  // All cycles share edge {a, b}, so the result is a single cluster. Gather
  // the distinct clusters the cycle edges already belong to, and the edges
  // that are still unowned.
  std::vector<ClusterId> involved;
  std::vector<Edge> unowned;
  std::unordered_set<Edge, graph::EdgeHash> seen;
  for (const ShortCycle& cycle : cycles) {
    for (const Edge& e : cycle.CycleEdges()) {
      if (!seen.insert(e).second) continue;
      const ClusterId owner = clusters_.OwnerOf(e);
      if (owner == kInvalidCluster) {
        unowned.push_back(e);
      } else if (std::find(involved.begin(), involved.end(), owner) ==
                 involved.end()) {
        involved.push_back(owner);
      }
    }
  }

  ClusterId target;
  if (involved.empty()) {
    target = clusters_.Create(unowned);
    clusters_.FindMutable(target)->born_at = now_;
    return;
  }
  target = involved[0];
  for (std::size_t i = 1; i < involved.size(); ++i) {
    target = clusters_.Merge(target, involved[i]);  // Lemma 6
    ++stats_.cluster_merges;
  }
  for (const Edge& e : unowned) clusters_.AddEdgeTo(target, e);
}

bool ScpMaintainer::RemoveEdge(NodeId a, NodeId b) {
  const Edge e = Edge::Of(a, b);
  const ClusterId owner = clusters_.OwnerOf(e);
  if (!graph_.RemoveEdge(a, b)) return false;
  ++stats_.edges_removed;
  if (owner == kInvalidCluster) return true;
  clusters_.RemoveEdge(e);
  if (clusters_.Find(owner) != nullptr) RecloseCluster(owner);
  return true;
}

bool ScpMaintainer::RemoveNode(NodeId n) {
  if (!graph_.HasNode(n)) return false;
  ++stats_.nodes_removed;
  // Collect incident edges and their owners before mutating.
  std::vector<Edge> incident;
  for (NodeId neighbor : graph_.Neighbors(n)) {
    incident.push_back(Edge::Of(n, neighbor));
  }
  std::vector<ClusterId> affected;
  for (const Edge& e : incident) {
    const ClusterId owner = clusters_.RemoveEdge(e);
    if (owner != kInvalidCluster &&
        std::find(affected.begin(), affected.end(), owner) ==
            affected.end()) {
      affected.push_back(owner);
    }
  }
  graph_.RemoveNode(n);
  stats_.edges_removed += incident.size();
  for (ClusterId id : affected) {
    if (clusters_.Find(id) != nullptr) RecloseCluster(id);
  }
  return true;
}

void ScpMaintainer::RecloseCluster(ClusterId id) {
  ++stats_.reclosures;
  Cluster* cluster = clusters_.FindMutable(id);
  SCPRT_DCHECK(cluster != nullptr);

  // The invariant guarantees every short cycle through a cluster edge lies
  // wholly inside the cluster, so the canonical re-derivation can run on the
  // cluster's own subgraph — this is the locality of Section 5.3: only the
  // nodes of the original cluster are visited.
  DynamicGraph sub;
  for (const Edge& e : cluster->edges()) sub.AddEdge(e.u, e.v);
  stats_.reclosure_edges_scanned += cluster->edge_count();

  std::vector<std::vector<Edge>> fragments = OfflineScpClusters(sub);

  // Fast path: the cluster survives intact (every edge still on a short
  // cycle, still one component).
  if (fragments.size() == 1 &&
      fragments[0].size() == cluster->edge_count()) {
    return;
  }

  // Otherwise rebuild: the original cluster is removed and every fragment,
  // a lone shrunk one included, becomes a fresh cluster with a new id.
  const QuantumIndex born = cluster->born_at;
  clusters_.Remove(id);
  if (fragments.empty()) return;
  if (fragments.size() > 1) ++stats_.cluster_splits;
  for (const auto& fragment : fragments) {
    const ClusterId fresh = clusters_.Create(fragment);
    // Fragments keep the original birth stamp: the event they carry was
    // first seen when the parent cluster formed.
    clusters_.FindMutable(fresh)->born_at = born;
  }
}

void ScpMaintainer::Apply(const GraphDelta& delta) {
  for (NodeId n : delta.nodes_removed) RemoveNode(n);
  for (const Edge& e : delta.edges_removed) RemoveEdge(e.u, e.v);
  for (const Edge& e : delta.edges_added) AddEdge(e.u, e.v);
}

std::vector<std::vector<Edge>> ScpMaintainer::CanonicalClusters() const {
  std::vector<std::vector<Edge>> out;
  out.reserve(clusters_.size());
  for (const auto& [_, cluster] : clusters_.clusters()) {
    out.push_back(cluster->SortedEdges());
  }
  CanonicalizeClusterList(out);
  return out;
}

void ScpMaintainer::Save(BinaryWriter& out) const { clusters_.Save(out); }

bool ScpMaintainer::Restore(BinaryReader& in,
                            const std::vector<Edge>& edges) {
  graph_.Clear();
  for (const Edge& e : edges) graph_.AddEdge(e.u, e.v);
  // Every cluster edge must be a graph edge (O(E) — the full invariant
  // check stays a test-only tool).
  bool valid = clusters_.Restore(in);
  for (const auto& [_, cluster] : clusters_.clusters()) {
    if (!valid) break;
    for (const Edge& e : cluster->edges()) {
      if (!graph_.HasEdge(e.u, e.v)) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    graph_.Clear();
    clusters_ = ClusterSet();
    in.Fail();
    return false;
  }
  return true;
}

bool ScpMaintainer::ValidateInvariants() const {
  // 1. Edge ownership consistency + edge-disjointness.
  std::size_t owned = 0;
  for (const auto& [id, cluster] : clusters_.clusters()) {
    if (cluster->edge_count() == 0) return false;
    for (const Edge& e : cluster->edges()) {
      if (!graph_.HasEdge(e.u, e.v)) return false;
      if (clusters_.OwnerOf(e) != id) return false;
      ++owned;
    }
  }
  if (owned != clusters_.total_edges()) return false;

  // 2. Every cluster satisfies SCP and is a single canonical cluster.
  for (const auto& [_, cluster] : clusters_.clusters()) {
    if (!EdgeSetIsSingleScpCluster(cluster->SortedEdges())) return false;
  }

  // 3. Agreement with the canonical offline clustering of the whole graph.
  return CanonicalClusters() == OfflineScpClusters(graph_);
}

}  // namespace scprt::cluster
