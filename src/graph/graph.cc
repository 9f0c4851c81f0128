#include "graph/graph.h"

#include <algorithm>

#include "common/check.h"

namespace scprt::graph {

namespace {

// Inserts `v` into the sorted vector `vec`; returns false if present.
bool SortedInsert(std::vector<NodeId>& vec, NodeId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it != vec.end() && *it == v) return false;
  vec.insert(it, v);
  return true;
}

// Erases `v` from the sorted vector `vec`; returns false if absent.
bool SortedErase(std::vector<NodeId>& vec, NodeId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it == vec.end() || *it != v) return false;
  vec.erase(it);
  return true;
}

bool SortedContains(const std::vector<NodeId>& vec, NodeId v) {
  return std::binary_search(vec.begin(), vec.end(), v);
}

}  // namespace

bool DynamicGraph::AddNode(NodeId n) {
  return adjacency_.try_emplace(n).second;
}

bool DynamicGraph::RemoveNode(NodeId n) {
  auto it = adjacency_.find(n);
  if (it == adjacency_.end()) return false;
  for (NodeId neighbor : it->second) {
    auto nit = adjacency_.find(neighbor);
    SCPRT_DCHECK(nit != adjacency_.end());
    SortedErase(nit->second, n);
  }
  edge_count_ -= it->second.size();
  adjacency_.erase(it);
  return true;
}

bool DynamicGraph::AddEdge(NodeId a, NodeId b) {
  if (a == b) return false;
  auto& na = adjacency_[a];
  auto& nb = adjacency_[b];
  if (!SortedInsert(na, b)) return false;
  SortedInsert(nb, a);
  ++edge_count_;
  return true;
}

bool DynamicGraph::RemoveEdge(NodeId a, NodeId b) {
  auto ita = adjacency_.find(a);
  auto itb = adjacency_.find(b);
  if (ita == adjacency_.end() || itb == adjacency_.end()) return false;
  if (!SortedErase(ita->second, b)) return false;
  SortedErase(itb->second, a);
  --edge_count_;
  return true;
}

bool DynamicGraph::HasEdge(NodeId a, NodeId b) const {
  auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return false;
  return SortedContains(it->second, b);
}

const std::vector<NodeId>& DynamicGraph::Neighbors(NodeId n) const {
  auto it = adjacency_.find(n);
  SCPRT_CHECK(it != adjacency_.end());
  return it->second;
}

std::size_t DynamicGraph::Degree(NodeId n) const {
  auto it = adjacency_.find(n);
  return it == adjacency_.end() ? 0 : it->second.size();
}

std::vector<NodeId> DynamicGraph::CommonNeighbors(NodeId a, NodeId b) const {
  std::vector<NodeId> out;
  auto ita = adjacency_.find(a);
  auto itb = adjacency_.find(b);
  if (ita == adjacency_.end() || itb == adjacency_.end()) return out;
  std::set_intersection(ita->second.begin(), ita->second.end(),
                        itb->second.begin(), itb->second.end(),
                        std::back_inserter(out));
  return out;
}

bool DynamicGraph::HaveCommonNeighbor(NodeId a, NodeId b) const {
  auto ita = adjacency_.find(a);
  auto itb = adjacency_.find(b);
  if (ita == adjacency_.end() || itb == adjacency_.end()) return false;
  const auto& va = ita->second;
  const auto& vb = itb->second;
  std::size_t i = 0, j = 0;
  while (i < va.size() && j < vb.size()) {
    if (va[i] == vb[j]) return true;
    if (va[i] < vb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

std::vector<NodeId> DynamicGraph::Nodes() const {
  std::vector<NodeId> out;
  out.reserve(adjacency_.size());
  for (const auto& [n, _] : adjacency_) out.push_back(n);
  return out;
}

std::vector<Edge> DynamicGraph::Edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count_);
  for (const auto& [n, neighbors] : adjacency_) {
    for (NodeId m : neighbors) {
      if (n < m) out.push_back(Edge{n, m});
    }
  }
  return out;
}

void DynamicGraph::Clear() {
  adjacency_.clear();
  edge_count_ = 0;
}

}  // namespace scprt::graph
