// Post-hoc spurious-event analysis (Section 7.2.2): real events evolve —
// their clusters grow or their ranks move non-monotonically — while spurious
// events (ads, rumor bursts) flare once and then decay monotonically. The
// tracker keeps a short rank/size history per cluster and flags the latter.

#ifndef SCPRT_RANK_RANK_TRACKER_H_
#define SCPRT_RANK_RANK_TRACKER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/types.h"

namespace scprt::rank {

/// One observation of a live cluster.
struct RankObservation {
  QuantumIndex quantum = 0;
  double rank = 0.0;
  std::uint32_t node_count = 0;
};

/// Per-cluster rank history with bounded memory.
class RankTracker {
 public:
  /// History length required before a spurious verdict.
  static constexpr std::size_t kMinObservations = 3;
  /// Ring size per cluster.
  static constexpr std::size_t kMaxHistory = 16;
  static_assert(kMinObservations >= 2);
  static_assert(kMaxHistory >= kMinObservations);

  /// Records one per-quantum observation of a live cluster.
  void Observe(ClusterId id, const RankObservation& obs);

  /// True if the cluster looks spurious so far: enough history, the keyword
  /// set never grew, and the rank decreased monotonically after its first
  /// observation. "We cannot suppress these events ... however we can
  /// analyze their behavior in a post-hoc manner" — callers typically use
  /// this for reporting/evaluation, not for suppression.
  bool IsLikelySpurious(ClusterId id) const;

  /// Drops a dead cluster's history.
  void Forget(ClusterId id);

  /// History access (tests).
  const std::deque<RankObservation>* HistoryOf(ClusterId id) const;

  /// Ids with live history (for caller-side garbage collection).
  std::vector<ClusterId> TrackedIds() const;

  std::size_t tracked() const { return history_.size(); }

  /// Serializes every cluster's history (id-sorted, ranks as bit-exact
  /// doubles), so spuriousness verdicts after a restore match the
  /// never-restarted tracker's exactly.
  void Save(BinaryWriter& out) const;

  /// Replaces this tracker's histories with Save()'s encoding. Returns
  /// false on malformed input; the tracker is cleared then.
  bool Restore(BinaryReader& in);

 private:
  std::unordered_map<ClusterId, std::deque<RankObservation>> history_;
};

}  // namespace scprt::rank

#endif  // SCPRT_RANK_RANK_TRACKER_H_
