// Per-keyword user-id sets over the sliding window (Section 3.2: "This set
// U1 (called the id set) associated with a keyword n1 contains the ids of
// all those users who used this word in the current window").
//
// The store is partitioned into a fixed number of keyword shards
// (keyword % kIdSetShards). Each shard keeps its window as one flat table
// with a row per distinct (keyword, user) pair of the window, sorted by
// (keyword, user): two parallel arrays (users, counts), where a row's
// count is the number of window quanta the pair occurs in, and a
// directory of the distinct keywords with the offsets where their runs of
// rows start (the keyword column, run-length encoded). A keyword's window
// id set is therefore one contiguous, ascending run of the users array,
// found by a binary search of the directory.
//
// Each quantum, every shard builds its new table in one linear three-way
// merge into a second, reused buffer: the window, plus the quantum's
// aggregate pairs, minus the expiring quantum's history entry (which is
// (keyword, user)-sorted by construction). Rows whose count reaches zero
// are dropped and the directory is written as the merge goes. Keyword
// runs that neither input touches are block-copied and touched runs are
// merged row by row, so the cost is O(|window rows| + |quantum pairs| +
// |expiring pairs|) per shard, with no per-keyword allocation or hash
// lookup. Every consumer is a linear scan of contiguous memory: the exact
// Jaccard (the edge correlation EC) is a merge intersection, signatures
// read the sorted users in place, and cluster support is a sorted union.
//
// Shards never share state; IngestAggregate merges them one after
// another. All outputs are canonical (window users ascending, everything
// else content-addressed), so results do not depend on the shard count;
// the count stays fixed because the snapshot format saves the shards.

#ifndef SCPRT_AKG_ID_SETS_H_
#define SCPRT_AKG_ID_SETS_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "akg/quantum_aggregate.h"
#include "common/binary_io.h"
#include "common/types.h"

namespace scprt::akg {

/// Maintains id sets for every keyword seen in the last `window_length`
/// quanta. Each quantum arrives as one IngestAggregate call with the
/// quantum's canonical aggregate.
class UserIdSets {
 public:
  /// Keyword shards per store. Fixed, so the saved data layout is always
  /// the same.
  static constexpr std::size_t kIdSetShards = 16;

  /// `window_length` is the paper's w, >= 1.
  explicit UserIdSets(std::size_t window_length);

  /// Ingests one whole quantum from its canonical aggregate (pairs
  /// strictly ascending) and expires the quantum that fell out of the
  /// window.
  void IngestAggregate(const QuantumAggregate& aggregate);

  /// Distinct users of `keyword` across the whole window (the node weight
  /// w_i of the rank function).
  std::size_t WindowSupport(KeywordId keyword) const;

  /// Distinct users of `keyword` across the window, ascending (empty for
  /// an absent keyword). The view is valid until the next IngestAggregate
  /// or Restore.
  std::span<const UserId> WindowUsers(KeywordId keyword) const;

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
  /// state: the window tables are folds of it), each in canonical
  /// (keyword, user)-sorted order.
  void Save(BinaryWriter& out) const;

  /// Replaces this store with Save()'s encoding, refolding each shard's
  /// histories into its window table in one sort-and-count pass. Returns
  /// false on malformed input (shard count or history depth mismatch,
  /// overrun, unsorted entry); the store is cleared then.
  bool Restore(BinaryReader& in);

 private:
  /// One shard's window: a row per distinct (keyword, user) pair, sorted
  /// by (keyword, user), and a directory over the keyword runs.
  struct WindowTable {
    // Row users: each keyword's run ascending.
    std::vector<UserId> users;
    // Window quanta in which the row's pair occurs; never zero.
    std::vector<std::uint32_t> counts;
    // Distinct keywords, ascending; run i is rows [starts[i], RunEnd(i)).
    std::vector<KeywordId> directory;
    std::vector<std::size_t> starts;

    std::size_t RunEnd(std::size_t run) const {
      return run + 1 < starts.size() ? starts[run + 1] : users.size();
    }
  };

  /// One closed quantum's PackPair values, ascending.
  using HistoryEntry = std::vector<std::uint64_t>;

  /// One keyword partition; a quantum touches every shard independently.
  struct Shard {
    // Closed quanta, oldest first; the generating state for expiry.
    std::deque<HistoryEntry> history;
    // The current window, and the buffer the next merge writes into.
    WindowTable window;
    WindowTable next;
    // The ingesting quantum's pairs of this shard (a recycled history
    // buffer between quanta).
    HistoryEntry incoming;
  };

  static std::size_t ShardOf(KeywordId keyword) {
    return keyword % kIdSetShards;
  }

  /// Writes into `out` the table `window` + `added` - `expired`: one merge
  /// over the three (keyword, user)-sorted inputs. Every pair of `expired`
  /// must be a row of `window`.
  static void MergeWindow(const WindowTable& window,
                          const HistoryEntry& added,
                          const HistoryEntry& expired, WindowTable& out);

  /// Rebuilds the shard's window table from its whole history: all pairs
  /// sorted once, each (keyword, user) run counted.
  static void RefoldWindow(Shard& shard);

  std::size_t window_length_;
  std::vector<Shard> shards_{kIdSetShards};
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_ID_SETS_H_
