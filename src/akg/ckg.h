// The full Correlated Keyword Graph (CKG) over the sliding window —
// every keyword a node, an edge wherever two keywords co-occur in one
// user's messages within a quantum (paper Section 1.1).
//
// The production pipeline never materializes the CKG (that is the point of
// the AKG, Section 3); this module exists for the Section 7.4 measurement
// ("the number of edges in AKG was less than 2% of CKG"), for tests, and
// for offline analyses a downstream user may want.

#ifndef SCPRT_AKG_CKG_H_
#define SCPRT_AKG_CKG_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>

#include "stream/message.h"

namespace scprt::akg {

/// Multiplicity-counted windowed co-occurrence graph. Push one quantum at a
/// time; the window slides automatically.
class WindowedCkg {
 public:
  /// `window_length` = the paper's w, in quanta.
  explicit WindowedCkg(std::size_t window_length);

  /// Ingests one quantum (all messages), expiring the quantum that leaves
  /// the window.
  void PushQuantum(const stream::Quantum& quantum);

  /// Distinct co-occurrence edges currently in the window.
  std::size_t edge_count() const { return edges_.size(); }

  /// Distinct keywords currently in the window.
  std::size_t node_count() const { return nodes_.size(); }

  /// True if the two keywords currently co-occur.
  bool HasEdge(KeywordId a, KeywordId b) const;

  /// True once the window holds `window_length` quanta.
  bool warm() const { return history_.size() == window_length_; }

 private:
  static std::uint64_t EdgeKey(KeywordId a, KeywordId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  std::size_t window_length_;
  // Window aggregates with multiplicities so expiry is exact.
  std::unordered_map<std::uint64_t, std::uint32_t> edges_;
  std::unordered_map<KeywordId, std::uint32_t> nodes_;
  struct QuantumContribution {
    std::unordered_map<std::uint64_t, std::uint32_t> edges;
    std::unordered_map<KeywordId, std::uint32_t> nodes;
  };
  std::deque<QuantumContribution> history_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_CKG_H_
