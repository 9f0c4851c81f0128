// Incremental per-quantum Min-Hash sketch ring over the sliding window.
//
// Where UserIdSets folds the quantum's (keyword, user) occurrences into
// window id sets, SketchWindow sketches them: each quantum deposits one
// bottom-p MinHashSignature per occurring keyword into a keyword-sharded ring
// (same partition law as UserIdSets — keyword % kShards), and a keyword's
// window signature is the pairwise Combine tree over its <= w per-quantum
// signatures instead of a rebuild from the folded window id set. Because
// Combine is exact under truncation, the tree's result is bit-identical to
// sketching the whole window union — at O(w * p) merge cost per keyword
// rather than O(|window id set|) rehash cost.
//
// Ingestion is shard-parallel (each shard owns disjoint keywords and its
// own ring), queries are read-only, and the ring's contents are a pure
// function of the ingested aggregates — no ordering anywhere depends on
// the thread count. Snapshots do not carry the ring: it is rebuilt from
// the id-set histories on restore.

#ifndef SCPRT_AKG_SKETCH_WINDOW_H_
#define SCPRT_AKG_SKETCH_WINDOW_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "akg/quantum_aggregate.h"
#include "common/parallel.h"
#include "common/types.h"

namespace scprt::akg {

/// Maintains per-quantum keyword sketches for the last `window_length`
/// quanta. One Ingest call per quantum, aligned with
/// UserIdSets::IngestAggregate.
class SketchWindow {
 public:
  /// Keyword shards — the same fixed partition as the id-set store, so one
  /// shard task can fold both structures for its keywords.
  static constexpr std::size_t kShards = UserIdSets::kIdSetShards;

  /// `window_length` is the paper's w (>= 1); `p` and `seed` configure
  /// the hasher.
  SketchWindow(std::size_t window_length, std::size_t p, std::uint64_t seed);

  /// The configured hasher (p, seed).
  const MinHasher& hasher() const { return hasher_; }

  /// Sketches one quantum's aggregate onto the ring (per-shard tasks run
  /// through `parallel_for`; serial when null) and expires the quantum
  /// falling out of the window.
  void Ingest(const QuantumAggregate& aggregate,
              const ParallelForFn& parallel_for);

  /// The keyword's window signature: fixed-shape Combine tree over its
  /// per-quantum signatures, oldest first — the p smallest distinct key
  /// hashes of the window id set, bit for bit. Empty when the keyword did
  /// not occur in the window.
  MinHashSignature WindowSketch(KeywordId keyword) const;

  /// Quanta currently retained (<= window length; uniform across shards).
  std::size_t depth() const { return shards_[0].ring.size(); }

  /// Drops every retained quantum.
  void Clear();

  /// Rebuilds the ring from restored id-set histories — the per-quantum
  /// distinct (keyword, user) pairs are exactly its generating state, so
  /// snapshots need not carry the ring at all.
  void RebuildFromHistory(const UserIdSets& sets);

 private:
  /// One quantum's signatures for one shard's keywords, keyword-ascending.
  using Slot = std::vector<std::pair<KeywordId, MinHashSignature>>;

  struct Shard {
    /// Closed quanta, oldest first.
    std::deque<Slot> ring;
  };

  static std::size_t ShardOf(KeywordId keyword) { return keyword % kShards; }

  std::size_t window_length_;
  MinHasher hasher_;
  std::vector<Shard> shards_{kShards};
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_SKETCH_WINDOW_H_
