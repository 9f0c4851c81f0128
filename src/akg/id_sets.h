// Per-keyword user-id sets over the sliding window (Section 3.2: "This set
// U1 (called the id set) associated with a keyword n1 contains the ids of
// all those users who used this word in the current window").
//
// A keyword's window id set is stored flat, as two parallel arrays: its
// users in ascending order, and for each user the number of window quanta
// it occurs in. A quantum's aggregate entry (sorted, distinct) is folded in
// with a backward in-place merge; expiry walks the oldest quantum's history
// entry, which is (keyword, user)-sorted by construction, and compacts out
// users whose count reaches zero. Both cost O(|window set| + |quantum
// users|) per keyword. Every consumer is a linear scan of contiguous
// memory: the exact Jaccard (the edge correlation EC) is a merge
// intersection, signatures read the sorted users in place, and cluster
// support is a sorted union.
//
// The store is partitioned into a fixed number of keyword shards
// (keyword % kIdSetShards). Shards never share state, so the per-quantum
// fold + expiry runs shard-parallel through IngestAggregate's hook. All
// outputs are canonical (QuantumKeywords ascending, window users
// ascending, everything else content-addressed), so results do not depend
// on the shard count or on which thread folded which shard.

#ifndef SCPRT_AKG_ID_SETS_H_
#define SCPRT_AKG_ID_SETS_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "akg/quantum_aggregate.h"
#include "common/binary_io.h"
#include "common/parallel.h"
#include "common/types.h"

namespace scprt::akg {

/// Maintains id sets for every keyword seen in the last `window_length`
/// quanta. Each quantum arrives as one IngestAggregate call with the
/// quantum's canonical aggregate.
class UserIdSets {
 public:
  /// Keyword shards per store. Fixed (not tied to the thread count) so the
  /// data layout is identical no matter who drives the ingestion.
  static constexpr std::size_t kIdSetShards = 16;

  /// `window_length` is the paper's w, >= 1.
  explicit UserIdSets(std::size_t window_length);

  /// Ingests one whole quantum from its canonical aggregate (keywords
  /// ascending, each user list ascending and distinct) and expires the
  /// quantum that fell out of the window. `parallel_for` (serial default
  /// when null) runs the independent per-shard folds concurrently.
  void IngestAggregate(const QuantumAggregate& aggregate,
                       const ParallelForFn& parallel_for);

  /// Distinct users of `keyword` in the most recent quantum.
  std::size_t QuantumSupport(KeywordId keyword) const;

  /// Keywords that occurred in the most recent quantum, ascending.
  const std::vector<KeywordId>& QuantumKeywords() const {
    return last_quantum_keywords_;
  }

  /// Distinct users of `keyword` across the whole window (the node weight
  /// w_i of the rank function).
  std::size_t WindowSupport(KeywordId keyword) const;

  /// Distinct users of `keyword` across the window, ascending (empty for
  /// an absent keyword). The view is valid until the next IngestAggregate
  /// or Restore.
  const std::vector<UserId>& WindowUsers(KeywordId keyword) const;

  /// Distinct users across the window id sets of all `keywords` (a
  /// cluster's support), by a chain of sorted unions.
  std::size_t UnionSupport(const std::vector<KeywordId>& keywords) const;

  /// Exact Jaccard coefficient of the two keywords' window id sets
  /// (|U1 n U2| / |U1 u U2|), by a merge intersection. 0 when either set
  /// is empty.
  double Jaccard(KeywordId a, KeywordId b) const;

  /// Number of keywords with non-empty window id sets.
  std::size_t active_keywords() const;

  /// Serializes the per-shard quantum histories (the minimal generating
  /// state: window sets and last-quantum views are folds of it), each in
  /// canonical (keyword, user)-sorted order.
  void Save(BinaryWriter& out) const;

  /// Replaces this store with Save()'s encoding, refolding each shard's
  /// histories into window sets in one sort-and-count pass. Returns false
  /// on malformed input (shard count or history depth mismatch, overrun,
  /// unsorted entry); the store is cleared then.
  bool Restore(BinaryReader& in);

 private:
  /// One keyword's window id set: `users` ascending and distinct;
  /// `quanta[i]` counts the window quanta in which `users[i]` occurred.
  struct WindowSet {
    std::vector<UserId> users;
    std::vector<std::uint32_t> quanta;
  };

  /// One closed quantum's (keyword, user) pairs, ascending.
  using HistoryEntry = std::vector<std::pair<KeywordId, UserId>>;

  /// One keyword partition; a quantum touches every shard independently.
  struct Shard {
    // Closed quanta, oldest first; the generating state for expiry.
    std::deque<HistoryEntry> history;
    // Window id sets of the shard's keywords.
    std::unordered_map<KeywordId, WindowSet> window;
    // Most recent quantum's per-keyword distinct-user counts.
    std::unordered_map<KeywordId, std::uint32_t> last_quantum_support;
    // Keywords of the most recent quantum, ascending.
    std::vector<KeywordId> last_quantum_keywords;
  };

  static std::size_t ShardOf(KeywordId keyword) {
    return keyword % kIdSetShards;
  }

  /// Merges a quantum's sorted, distinct `users` into `set`, counting one
  /// more window quantum for each.
  static void FoldUsers(WindowSet& set, const std::vector<UserId>& users);

  /// Drops the shard's oldest quantum from its window sets and history.
  static void ExpireOldest(Shard& shard);

  /// Rebuilds the shard's window sets from its whole history: all pairs
  /// sorted once, each (keyword, user) run counted.
  static void RefoldWindow(Shard& shard);

  /// Rebuilds the merged QuantumKeywords vector from the shards.
  void MergeQuantumKeywords();

  std::size_t window_length_;
  std::vector<Shard> shards_{kIdSetShards};
  // Merged view of the shards' last-quantum keywords, ascending.
  std::vector<KeywordId> last_quantum_keywords_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_ID_SETS_H_
