#include "rank/ranking.h"

#include "common/check.h"

namespace scprt::rank {

double ClusterRank(const cluster::Cluster& cluster, const EcFn& ec,
                   const WeightFn& weight) {
  const std::size_t n = cluster.node_count();
  if (n == 0) return 0.0;
  // Canonical (sorted) accumulation order: float addition is not
  // associative, so summing in container order would make the low rank
  // bits depend on hash-table layout — which must not differ between a
  // restored detector and a never-restarted one (durability/backend.h's
  // bit-identical guarantee), or across runs feeding the golden digests.
  double total = 0.0;
  for (graph::NodeId node : cluster.SortedNodes()) {
    total += weight(node);  // diagonal C_ii = 1
  }
  for (const graph::Edge& e : cluster.SortedEdges()) {
    const double c = ec(e);
    SCPRT_DCHECK(c >= 0.0 && c <= 1.0);
    total += (weight(e.u) + weight(e.v)) * c;
  }
  return total / static_cast<double>(n);
}

double MinRankThreshold(std::uint32_t high_state_threshold,
                        double ec_threshold, double margin) {
  return margin * static_cast<double>(high_state_threshold) *
         (1.0 + 2.0 * ec_threshold);
}

}  // namespace scprt::rank
