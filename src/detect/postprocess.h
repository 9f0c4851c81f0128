// Post-processing of discovered events (paper Section 1.1: clusters
// pointing to the same event "should show temporal correlation. Therefore,
// one can post-process the discovered clusters (within a given time window)
// to correlate such clusters"; Section 8 lists this as future work).
//
// Two facilities:
//   * EventCorrelator — groups reported events of the same quantum window
//     whose clusters are temporally close and share keywords or supporting
//     users, producing "story" groups for presentation.
//   * SpuriousSuppressor — a reporting policy over the rank tracker's
//     post-hoc signal: events flagged spurious for several consecutive
//     quanta are demoted out of the feed (the paper cannot suppress them at
//     discovery time — "we cannot determine their future behavior" — but a
//     consumer-facing feed can demote them once the signal stabilizes).

#ifndef SCPRT_DETECT_POSTPROCESS_H_
#define SCPRT_DETECT_POSTPROCESS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "detect/event.h"

namespace scprt::detect {

/// One group of correlated events (a "story").
struct Story {
  /// Snapshot indices into the input vector, rank-descending.
  std::vector<std::size_t> members;
  /// Highest member rank (the story's rank).
  double rank = 0.0;
};

/// Groups the events of one report into stories. Single-pass greedy union
/// by pairwise keyword Jaccard + birth proximity; deterministic. Two events
/// correlate when the Jaccard of their keyword sets reaches 0.25 and their
/// birth quanta differ by at most 8 (temporal correlation of clusters about
/// one real-world event).
std::vector<Story> CorrelateEvents(const std::vector<EventSnapshot>& events);

/// Demotion policy over consecutive spurious flags.
class SpuriousSuppressor {
 public:
  /// Consecutive likely_spurious observations before an event is
  /// suppressed.
  static constexpr int kPatience = 3;

  /// Feeds one quantum's snapshots; returns the indices (into `events`)
  /// that should be shown, preserving order. Events flagged spurious for
  /// kPatience consecutive quanta are dropped; state resets whenever the
  /// flag clears (the event "came back to life").
  std::vector<std::size_t> Filter(const std::vector<EventSnapshot>& events);

  /// Number of events currently suppressed.
  std::size_t suppressed_count() const;

  /// Serializes the per-cluster consecutive-flag counters (id-sorted).
  void Save(BinaryWriter& out) const;

  /// Replaces the counters with Save()'s encoding. Returns false on
  /// malformed input; the suppressor is cleared then.
  bool Restore(BinaryReader& in);

 private:
  std::unordered_map<ClusterId, int> consecutive_;
};

}  // namespace scprt::detect

#endif  // SCPRT_DETECT_POSTPROCESS_H_
