// Per-keyword user-id sets over the sliding window (Section 3.2: "This set
// U1 (called the id set) associated with a keyword n1 contains the ids of
// all those users who used this word in the current window").
//
// Supports O(1) amortized ingestion, exact window expiry, per-quantum
// distinct-user counts (the burstiness signal), and exact Jaccard between
// two keywords' id sets (the edge correlation EC).
//
// Internally the store is partitioned into a fixed number of keyword
// shards (keyword % kIdSetShards). Shards never share state, so the
// per-quantum fold + expiry runs shard-parallel through IngestAggregate's
// hook while every query and the Begin/Add/End path stay unchanged. All
// outputs are canonical (QuantumKeywords ascending, everything else
// content-addressed), so results do not depend on the shard count or on
// which thread folded which shard.

#ifndef SCPRT_AKG_ID_SETS_H_
#define SCPRT_AKG_ID_SETS_H_

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "akg/quantum_aggregate.h"
#include "common/binary_io.h"
#include "common/parallel.h"
#include "common/types.h"

namespace scprt::akg {

/// Maintains id sets for every keyword seen in the last `window_length`
/// quanta. Usage per quantum: BeginQuantum(); Add(...)*; EndQuantum() — or
/// one IngestAggregate call with the quantum's canonical aggregate.
class UserIdSets {
 public:
  /// Keyword shards per store. Fixed (not tied to the thread count) so the
  /// data layout is identical no matter who drives the ingestion.
  static constexpr std::size_t kIdSetShards = 16;

  /// `window_length` is the paper's w, >= 1.
  explicit UserIdSets(std::size_t window_length);

  /// Opens a new quantum. Must alternate with EndQuantum.
  void BeginQuantum();

  /// Records that `user` used `keyword` in the open quantum. Duplicate
  /// (keyword, user) pairs within a quantum are collapsed.
  void Add(KeywordId keyword, UserId user);

  /// Closes the quantum, folds it into the window aggregate, and expires
  /// the quantum that fell out of the window.
  void EndQuantum();

  /// Ingests one whole quantum from its canonical aggregate — exactly
  /// equivalent to BeginQuantum + Add* + EndQuantum on the same content.
  /// `parallel_for` (serial default when null) runs the independent
  /// per-shard folds concurrently.
  void IngestAggregate(const QuantumAggregate& aggregate,
                       const ParallelForFn& parallel_for);

  /// Distinct users of `keyword` in the (just-closed) most recent quantum.
  std::size_t QuantumSupport(KeywordId keyword) const;

  /// Keywords that occurred in the most recent quantum, ascending.
  const std::vector<KeywordId>& QuantumKeywords() const {
    return last_quantum_keywords_;
  }

  /// Distinct users of `keyword` across the whole window (the node weight
  /// w_i of the rank function).
  std::size_t WindowSupport(KeywordId keyword) const;

  /// Distinct users of `keyword` across the window (unordered snapshot).
  std::vector<UserId> WindowUsers(KeywordId keyword) const;

  /// Exact Jaccard coefficient of the two keywords' window id sets
  /// (|U1 n U2| / |U1 u U2|). 0 when either set is empty.
  double Jaccard(KeywordId a, KeywordId b) const;

  /// Number of keywords with non-empty window id sets.
  std::size_t active_keywords() const;

  /// Serializes the per-shard quantum histories (the minimal generating
  /// state: window aggregates and last-quantum views are folds of it), in
  /// canonical (keyword, user)-sorted order. Must be called between quanta.
  void Save(BinaryWriter& out) const;

  /// Replaces this store with Save()'s encoding, refolding the histories
  /// into window aggregates. Returns false on malformed input (shard count
  /// or history depth mismatch, overrun); the store is cleared then.
  bool Restore(BinaryReader& in);

 private:
  using UserCounts = std::unordered_map<UserId, std::uint32_t>;

  /// One keyword partition; a quantum touches every shard independently.
  struct Shard {
    // Open quantum: keyword -> distinct users.
    std::unordered_map<KeywordId, std::unordered_set<UserId>> current;
    // Closed quanta, oldest first, in compact form for expiry.
    std::deque<std::vector<std::pair<KeywordId, UserId>>> history;
    // Window aggregate: keyword -> (user -> multiplicity across quanta).
    std::unordered_map<KeywordId, UserCounts> window;
    // Most recent closed quantum's per-keyword distinct-user counts.
    std::unordered_map<KeywordId, std::uint32_t> last_quantum_support;
    // Keywords of the most recent closed quantum, ascending.
    std::vector<KeywordId> last_quantum_keywords;
  };

  static std::size_t ShardOf(KeywordId keyword) {
    return keyword % kIdSetShards;
  }

  /// Folds one keyword's quantum users into `shard`: support count,
  /// keyword list, window multiplicities and the compact history entry.
  /// The single definition of the fold invariant — both ingest paths
  /// (EndQuantum and IngestAggregate) go through it.
  template <typename Users>
  static void FoldKeyword(Shard& shard, KeywordId keyword,
                          const Users& users,
                          std::vector<std::pair<KeywordId, UserId>>& compact);

  /// Folds the shard's open quantum into its window and expires the
  /// quantum leaving the window. Touches only `shard`.
  void FoldShard(Shard& shard);

  /// Drops the shard's quantum that just left the window, if any.
  void ExpireShard(Shard& shard);

  /// Rebuilds the merged QuantumKeywords vector from the shards.
  void MergeQuantumKeywords();

  std::size_t window_length_;
  bool quantum_open_ = false;
  std::vector<Shard> shards_{kIdSetShards};
  // Merged view of the shards' last-quantum keywords, ascending.
  std::vector<KeywordId> last_quantum_keywords_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_ID_SETS_H_
