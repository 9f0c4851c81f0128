// The paper's rank function (Section 6): rank(C) = W . C . 1^T / n, where
// W is the 1-by-n vector of node weights (distinct supporting users per
// keyword), C the n-by-n edge-correlation matrix with unit diagonal, zero
// for non-edges and EC_ij for cluster edges. Expanding:
//
//   rank = (1/n) * [ sum_i w_i  +  sum_{(i,j) in E} (w_i + w_j) * EC_ij ]
//
// so stronger correlation, higher density and bigger support all raise the
// rank, while the 1/n normalization stops rank from growing monotonically
// with cluster size. Everything is local to the cluster — no global state.

#ifndef SCPRT_RANK_RANKING_H_
#define SCPRT_RANK_RANKING_H_

#include <cstdint>
#include <span>

namespace scprt::rank {

/// One cluster edge's rank inputs: its endpoints' weights and its EC.
struct EdgeTerm {
  double weight_u = 0.0;
  double weight_v = 0.0;
  double ec = 0.0;
};

/// Computes the rank of a cluster from its members' weights w_i and its
/// edges' terms. The caller passes both in canonical order (members and
/// edges ascending): float addition is not associative, and the sums are
/// taken in the order given. O(nodes + edges).
double ClusterRank(std::span<const double> node_weights,
                   std::span<const EdgeTerm> edges);

/// The minimum rank a just-qualifying cluster can have: every node at the
/// burstiness floor theta, every edge at the EC floor gamma, and the
/// sparsest SCP-satisfying density (one short cycle per edge, ~n edges):
/// rank_min = theta * (1 + 2 * gamma). The paper filters reported events
/// below a threshold that is "a function of the minimum rank that a cluster
/// of size N can have" (Section 7.2.2); `margin` scales the floor.
double MinRankThreshold(std::uint32_t high_state_threshold,
                        double ec_threshold, double margin = 1.0);

}  // namespace scprt::rank

#endif  // SCPRT_RANK_RANKING_H_
