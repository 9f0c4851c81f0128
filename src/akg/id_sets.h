// Per-keyword user-id sets over the sliding window (Section 3.2: "This set
// U1 (called the id set) associated with a keyword n1 contains the ids of
// all those users who used this word in the current window").
//
// The window is one flat table with a row per distinct (keyword, user)
// pair of the window, sorted by (keyword, user): two parallel arrays
// (users, counts), where a row's count is the number of window quanta the
// pair occurs in, and a directory of the distinct keywords with the
// offsets where their runs of rows start (the keyword column, run-length
// encoded). A keyword's window id set is therefore one contiguous,
// ascending run of the users array, found by a binary search of the
// directory.
//
// Each quantum builds the new table in one linear three-way merge into a
// second, reused buffer: the window, plus the quantum's aggregate pairs,
// minus the expiring quantum's history entry (which is (keyword,
// user)-sorted by construction). Rows whose count reaches zero are dropped
// and the directory is written as the merge goes. Keyword runs that
// neither input touches are block-copied and touched runs are merged row
// by row, so the cost is O(|window rows| + |quantum pairs| + |expiring
// pairs|), with no per-keyword allocation or hash lookup. The merge also
// records the quantum's row transitions, the pairs that entered and left
// the window, from which the AKG builder keeps its bottom-p signatures
// current without re-reading the window. Every consumer is a linear scan
// of contiguous memory: the exact Jaccard (the edge correlation EC) is a
// merge intersection, a rescanned signature reads the sorted users in
// place, and cluster support is a sorted union of the members' runs.
//
// EC only ever compares a value with gamma, so JaccardAtLeast prunes as a
// set-similarity join does (AllPairs, PPJoin): a pair whose smaller set
// is too short to reach gamma is never merged, and a merge stops once the
// rows left cannot lift the intersection to the least count that reaches
// gamma. A value it returns at or above gamma is the exact Jaccard.
//
// The id sets are the AKG layer's only record of the last w quanta: the
// CKG node count is the directory's size, and a snapshot stores no
// last-seen stamps, since the history answers them (QuantaSinceSeen). A
// snapshot holds the history alone, each entry as it is in memory; Restore
// refolds the window table from it.

#ifndef SCPRT_AKG_ID_SETS_H_
#define SCPRT_AKG_ID_SETS_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>
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
  /// `window_length` is the paper's w, >= 1.
  explicit UserIdSets(std::size_t window_length);

  /// Ingests one whole quantum from its canonical aggregate (pairs
  /// strictly ascending), whose pairs become the quantum's history entry,
  /// and expires the quantum that fell out of the window.
  void IngestAggregate(QuantumAggregate aggregate);

  /// Distinct users of `keyword` across the whole window (the node weight
  /// w_i of the rank function).
  std::size_t WindowSupport(KeywordId keyword) const;

  /// Distinct users of `keyword` across the window, ascending (empty for
  /// an absent keyword). The view is valid until the next IngestAggregate
  /// or Restore.
  std::span<const UserId> WindowUsers(KeywordId keyword) const;

  /// Distinct users across the ascending user `runs` (a cluster's
  /// support, from its members' WindowUsers), by a chain of sorted unions
  /// between two buffers sized for the disjoint case.
  static std::size_t UnionSupport(
      std::span<const std::span<const UserId>> runs);

  /// The last IngestAggregate's row transitions, as (keyword,
  /// user)-ascending PackPair values: the pairs that entered the window
  /// (count 0 -> 1) and those that left it (count -> 0). Both are empty
  /// after Restore; the views are valid until the next IngestAggregate or
  /// Restore.
  std::span<const std::uint64_t> entered() const { return entered_; }
  std::span<const std::uint64_t> left() const { return left_; }

  /// Exact Jaccard coefficient of the two keywords' window id sets
  /// (|U1 n U2| / |U1 u U2|), by a merge intersection. 0 when either set
  /// is empty.
  double Jaccard(KeywordId a, KeywordId b) const;

  /// Jaccard(a, b), bit for bit, when that value is >= `floor`; otherwise
  /// an upper bound of it that is below `floor`. Computes the least
  /// intersection whose ratio reaches `floor` and stops the merge once the
  /// rows left cannot reach it (no merge at all when the smaller set
  /// cannot: the length filter).
  double JaccardAtLeast(KeywordId a, KeywordId b, double floor) const;

  /// Number of keywords with non-empty window id sets: the CKG node count
  /// of the window.
  std::size_t active_keywords() const { return window_.directory.size(); }

  /// Number of window rows: distinct (keyword, user) pairs of the window.
  std::size_t window_rows() const { return window_.users.size(); }

  /// Number of quanta in the history: those ingested, at most w.
  std::size_t depth() const { return history_.size(); }

  /// How many quanta before the newest one the newest history entry that
  /// holds `keyword` is (0 when the newest entry holds it), or nullopt when
  /// no entry does. A binary search per entry, newest first.
  std::optional<std::size_t> QuantaSinceSeen(KeywordId keyword) const;

  /// Serializes the quantum history, the minimal generating state (the
  /// window table is a fold of it): w, the depth, then each entry oldest
  /// first as a count and its PackPair values in memory order.
  void Save(BinaryWriter& out) const;

  /// Replaces this store with Save()'s encoding; the window table is every
  /// saved pair sorted and counted (stable radix passes, no comparison
  /// sort). Returns false on malformed input (a window length other than
  /// w, a depth above it, an overrun, an entry not strictly ascending); the
  /// store is cleared then.
  bool Restore(BinaryReader& in);

 private:
  /// The window: a row per distinct (keyword, user) pair, sorted by
  /// (keyword, user), and a directory over the keyword runs.
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

  /// Writes into `out` the table `window` + `added` - `expired`: one merge
  /// over the three (keyword, user)-sorted inputs, which also writes the
  /// pairs that become rows into `entered` and those whose row goes into
  /// `left`. Every pair of `expired` must be a row of `window`.
  static void MergeWindow(const WindowTable& window,
                          const HistoryEntry& added,
                          const HistoryEntry& expired, WindowTable& out,
                          HistoryEntry& entered, HistoryEntry& left);

  std::size_t window_length_;
  // Closed quanta, oldest first; the generating state for expiry.
  std::deque<HistoryEntry> history_;
  // The current window, and the buffer the next merge writes into.
  WindowTable window_;
  WindowTable next_;
  // The last merge's row transitions (reused buffers).
  HistoryEntry entered_;
  HistoryEntry left_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_ID_SETS_H_
