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
// State is one flat keyword-ascending member table, no hash maps: one
// (keyword, last_seen, last_bursty) row per AKG member, a few hundred
// rows. The window's other keywords are not the automaton's to track: the
// id sets (akg/id_sets.h) are the only record of the last w quanta, so a
// snapshot stores one (keyword, last_bursty) row per member and a load
// reads each member's last-seen stamp from the id sets. Each quantum
// merges its ascending keyword runs into the member table, writing a
// reused second buffer: the merge admits bursty keywords, stamps the
// members that occurred and runs the stale/faded eviction sweep as it
// goes, so every NodeStateUpdate list comes out ascending without a sort.

#ifndef SCPRT_AKG_NODE_STATE_H_
#define SCPRT_AKG_NODE_STATE_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/types.h"

namespace scprt::akg {

/// Per-quantum transition report. Every list is keyword-ascending.
struct NodeStateUpdate {
  /// All keywords in high state this quantum — the paper's set (1).
  std::vector<KeywordId> bursty;
  /// Keywords already in the AKG that occurred this quantum without being
  /// bursty — the paper's set (2) minus set (1).
  std::vector<KeywordId> seen_in_akg;
  /// Keywords evicted from the AKG this quantum.
  std::vector<KeywordId> removed;
};

/// Tracks low/high state: a keyword is high while it is an AKG member.
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

  std::uint32_t high_threshold() const { return high_threshold_; }

  /// A keyword's last-seen quantum, or nullopt when it is not a window
  /// keyword: what Restore reads each member's stamp from.
  using LastSeenFn =
      std::function<std::optional<QuantumIndex>(KeywordId keyword)>;

  /// Serializes the member table as one keyword-ascending list of
  /// (keyword, last_bursty) rows. The last-seen stamps are not saved: the
  /// window id sets hold them. Equal states give identical bytes.
  void Save(BinaryWriter& out) const;

  /// Replaces this automaton's state with Save()'s encoding; each member
  /// takes its last-seen stamp from `last_seen`. Returns false on malformed
  /// input — rows not strictly ascending, or a member `last_seen` has no
  /// stamp for — and the automaton is cleared then.
  bool Restore(BinaryReader& in, const LastSeenFn& last_seen);

 private:
  // Admitted while bursty, so every member has a last-bursty stamp.
  struct Member {
    KeywordId keyword;
    QuantumIndex last_seen;
    QuantumIndex last_bursty;
  };

  std::uint32_t high_threshold_;
  std::size_t window_length_;
  // Member table (current AKG), keyword-ascending, and its merge buffer.
  std::vector<Member> members_;
  std::vector<Member> next_members_;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_NODE_STATE_H_
