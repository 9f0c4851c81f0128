// EventFeed — the consumer-facing composition of the pipeline: detector +
// spurious suppression + story correlation + exactly-once delivery.
//
// The raw detector re-announces a cluster as NEW whenever its identity
// changes (e.g. splits); subscribers usually want each real-world event
// once. The feed dedupes by keyword-set similarity against recently
// delivered items, suppresses post-hoc-spurious events, and groups
// correlated clusters into stories before delivery. Its exactly-once state
// checkpoints alongside the detector (Save/Restore below) — cluster ids
// are stable across a restore, so the memory stays valid.

#ifndef SCPRT_DETECT_FEED_H_
#define SCPRT_DETECT_FEED_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "detect/event.h"
#include "detect/postprocess.h"

namespace scprt::detect {

/// One delivered feed item (a story's lead cluster plus its satellites).
struct FeedItem {
  QuantumIndex quantum = 0;
  /// The story's best-ranked snapshot.
  EventSnapshot lead;
  /// Other members of the story (possibly empty).
  std::vector<EventSnapshot> related;
};

/// Stateful feed: push each QuantumReport, receive newly deliverable items.
class EventFeed {
 public:
  /// A new item is a duplicate of a delivered one when the keyword Jaccard
  /// reaches kDedupeJaccard...
  static constexpr double kDedupeJaccard = 0.5;
  /// ...and the delivered item is at most kDedupeHorizon quanta old.
  static constexpr std::int64_t kDedupeHorizon = 60;
  /// Maximum remembered delivered items.
  static constexpr std::size_t kDedupeMemory = 256;

  /// Consumes one report; returns the items that should be delivered now
  /// (new stories only — ongoing ones are not repeated).
  std::vector<FeedItem> Consume(const QuantumReport& report);

  /// Items delivered so far.
  std::uint64_t delivered_count() const { return delivered_count_; }

  /// Events currently suppressed as spurious.
  std::size_t suppressed_count() const {
    return suppressor_.suppressed_count();
  }

  /// Serializes the feed's exactly-once state — dedupe memory, suppressor
  /// counters, delivery count — so a restored feed does not re-deliver
  /// stories it already delivered. Pairs with the detector snapshot
  /// (durability/backend.h).
  void Save(BinaryWriter& out) const;

  /// Replaces this feed's state with Save()'s encoding. Returns false on
  /// malformed input; the feed is reset to empty in that case.
  bool Restore(BinaryReader& in);

 private:
  struct DeliveredMemo {
    std::vector<KeywordId> keywords;  // sorted
    QuantumIndex quantum = 0;
  };

  bool IsDuplicate(const std::vector<KeywordId>& keywords,
                   QuantumIndex now) const;

  SpuriousSuppressor suppressor_;
  std::deque<DeliveredMemo> delivered_;
  std::uint64_t delivered_count_ = 0;
};

}  // namespace scprt::detect

#endif  // SCPRT_DETECT_FEED_H_
