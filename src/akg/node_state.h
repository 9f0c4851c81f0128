// The two-state (low/high) keyword automaton with hysteresis that decides
// AKG membership (Section 3.1).
//
// A keyword enters the AKG when it is bursty in a quantum: used by >= theta
// (the High State Threshold) distinct users. It stays while it is part of an
// event cluster, irrespective of subsequent frequency; it is evicted when it
// becomes stale (no occurrence in the last w quanta) or when it has neither
// been bursty in the last w quanta nor belongs to any cluster (the paper's
// lazy update, smoothed over the window).
//
// State lives in two flat keyword-ascending tables, no hash maps:
//   - the seen table: every keyword that occurred in the last w quanta and
//     its last-seen stamp (parallel keyword / stamp arrays);
//   - the member table: one (keyword, last_seen, last_bursty) row per AKG
//     member — a few hundred rows against the seen table's thousands.
// Each quantum merges its ascending keyword runs into both tables, each
// merge writing a reused second buffer. The seen merge stamps `now` on the
// keywords that occurred, inserts new ones and drops every row with
// stamp <= now - w. Dropping by stamp alone is exact: a member that stale
// is evicted by the member merge in the same quantum, so no member loses
// its seen row. The member merge admits bursty keywords and runs the
// stale/faded eviction sweep as it goes, so every NodeStateUpdate list
// comes out ascending without a sort.

#ifndef SCPRT_AKG_NODE_STATE_H_
#define SCPRT_AKG_NODE_STATE_H_

#include <functional>
#include <vector>

#include "common/binary_io.h"
#include "common/types.h"

namespace scprt::akg {

/// Per-quantum transition report. Every list is keyword-ascending.
struct NodeStateUpdate {
  /// Keywords newly admitted to the AKG this quantum (low -> high).
  std::vector<KeywordId> entered;
  /// All keywords in high state this quantum — the paper's set (1). A
  /// superset of `entered`.
  std::vector<KeywordId> bursty;
  /// Keywords already in the AKG that occurred this quantum without being
  /// bursty — the paper's set (2) minus set (1).
  std::vector<KeywordId> seen_in_akg;
  /// Keywords evicted from the AKG this quantum.
  std::vector<KeywordId> removed;
};

/// Tracks low/high state for every keyword seen in the last w quanta.
class NodeStateAutomaton {
 public:
  /// `high_threshold` is theta (distinct users/quantum); `window_length` is
  /// w, used for both the staleness and the burst-recency horizon.
  NodeStateAutomaton(std::uint32_t high_threshold,
                     std::size_t window_length);

  /// Processes one closed quantum. `quantum_keywords` lists keywords that
  /// occurred, with their distinct-user counts, in strictly ascending
  /// keyword order (the aggregate's keyword runs); `now` is the quantum
  /// index; `in_cluster` reports whether a keyword currently belongs to any
  /// discovered cluster (AKG retention rule).
  NodeStateUpdate ProcessQuantum(
      QuantumIndex now,
      const std::vector<std::pair<KeywordId, std::uint32_t>>&
          quantum_keywords,
      const std::function<bool(KeywordId)>& in_cluster);

  /// True if the keyword is currently an AKG node.
  bool InAkg(KeywordId keyword) const;

  /// Number of AKG nodes.
  std::size_t akg_size() const { return members_.size(); }

  /// The AKG nodes, ascending.
  std::vector<KeywordId> Members() const;

  /// Number of keywords tracked: those seen in the last w quanta, the CKG
  /// node count of the current window.
  std::size_t tracked_keywords() const { return seen_keywords_.size(); }

  std::uint32_t high_threshold() const { return high_threshold_; }

  /// Serializes the automaton as three keyword-sorted lists: last-seen
  /// stamps (the seen table), last-bursty stamps and AKG membership (both
  /// from the member table). Equal states give identical bytes.
  void Save(BinaryWriter& out) const;

  /// Replaces this automaton's state with Save()'s encoding. Returns false
  /// on malformed input — lists not strictly ascending, a member without a
  /// last-seen stamp, a last-bursty stamp for a non-member — and the
  /// automaton is cleared then. A member without a last-bursty stamp loads
  /// as never bursty.
  bool Restore(BinaryReader& in);

 private:
  struct Member {
    KeywordId keyword;
    // False only for a restored member saved without a last-bursty stamp.
    bool has_last_bursty;
    QuantumIndex last_seen;
    QuantumIndex last_bursty;
  };

  using QuantumKeywords = std::vector<std::pair<KeywordId, std::uint32_t>>;

  // Rebuilds the seen table: stamps `now` on the quantum's keywords and
  // drops rows at or below `horizon`.
  void MergeSeen(QuantumIndex now, QuantumIndex horizon,
                 const QuantumKeywords& quantum_keywords);
  // Rebuilds the member table: admissions, stamps and the eviction sweep.
  void MergeMembers(QuantumIndex now, QuantumIndex horizon,
                    const QuantumKeywords& quantum_keywords,
                    const std::function<bool(KeywordId)>& in_cluster,
                    NodeStateUpdate& update);
  void Clear();

  std::uint32_t high_threshold_;
  std::size_t window_length_;
  // Seen table, keyword-ascending, and its merge output buffers.
  std::vector<KeywordId> seen_keywords_;
  std::vector<QuantumIndex> seen_stamps_;
  std::vector<KeywordId> next_seen_keywords_;
  std::vector<QuantumIndex> next_seen_stamps_;
  // Member table (current AKG), keyword-ascending, and its merge buffer.
  std::vector<Member> members_;
  std::vector<Member> next_members_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_NODE_STATE_H_
