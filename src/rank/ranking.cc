#include "rank/ranking.h"

#include "common/check.h"

namespace scprt::rank {

double ClusterRank(std::span<const double> node_weights,
                   std::span<const EdgeTerm> edges) {
  const std::size_t n = node_weights.size();
  if (n == 0) return 0.0;
  // The inputs come in canonical (sorted) order and are summed in it:
  // float addition is not associative, so summing in container order
  // would make the low rank bits depend on hash-table layout — which must
  // not differ between a restored detector and a never-restarted one
  // (durability/backend.h's bit-identical guarantee), or across runs
  // feeding the golden digests.
  double total = 0.0;
  for (double weight : node_weights) total += weight;  // diagonal C_ii = 1
  for (const EdgeTerm& e : edges) {
    SCPRT_DCHECK(e.ec >= 0.0 && e.ec <= 1.0);
    total += (e.weight_u + e.weight_v) * e.ec;
  }
  return total / static_cast<double>(n);
}

double MinRankThreshold(std::uint32_t high_state_threshold,
                        double ec_threshold, double margin) {
  return margin * static_cast<double>(high_state_threshold) *
         (1.0 + 2.0 * ec_threshold);
}

}  // namespace scprt::rank
