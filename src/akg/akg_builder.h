// Per-quantum AKG construction (Section 3): consumes the message stream,
// maintains the two-state node automaton, id sets and Min-Hash signatures,
// and emits the node/edge delta that the cluster maintainer applies.
//
// The AKG has one copy: its nodes are the automaton's members, its edges
// the maintainer's graph, which between quanta holds exactly the
// correlated edges.
//
// The window id sets are the only window state: the CKG node count and
// every window keyword's last-seen quantum are read from them, and the
// node automaton holds the AKG members alone. A snapshot therefore holds
// only generating state, each fact once: the id-set history, one
// (keyword, last-bursty) row per member, each member's published
// signature in member order, and the correlations — the AKG's one edge
// list, from which a load also rebuilds the maintainer's graph. The clock
// is the caller's (the quantizer's), and the per-quantum statistics are
// not state.
//
// A keyword's signature is the bottom-p of its window id set, published
// only when an AKG member is refreshed (bursty, or seen this quantum);
// nothing is sketched for the rest of the quantum's vocabulary.
//
// The signatures live in one keyword-ascending table. Beside the published
// signature (the bottom-p at the keyword's last refresh, which the EC
// screen, the snapshot and the cluster sketch read), each entry keeps the
// current window bottom-p, brought up to date every quantum by one
// merge-join of the id sets' row transitions against the table: a leaving
// user among the p smallest keys invalidates it, an entering user's key
// is inserted when fewer than p are held or it beats the largest. A
// refresh publishes a valid current bottom-p as it is and rescans the
// window run (MinHasher::Sketch) only for an invalid, new or just-restored
// entry; eviction drops the entry.

#ifndef SCPRT_AKG_AKG_BUILDER_H_
#define SCPRT_AKG_AKG_BUILDER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "akg/correlation.h"
#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "akg/node_state.h"
#include "cluster/maintenance.h"
#include "common/binary_io.h"
#include "graph/graph.h"
#include "stream/message.h"

namespace scprt::akg {

/// Tunables of the AKG layer (paper Table 2 nominal values).
struct AkgConfig {
  /// theta: distinct users/quantum for a keyword to reach high state.
  std::uint32_t high_state_threshold = 4;
  /// gamma: minimum EC for an edge.
  double ec_threshold = 0.20;
  /// w: window length in quanta.
  std::size_t window_length = 30;
  /// p: Min-Hash signature size; 0 derives the paper's default
  /// min(theta/2, 1/gamma).
  std::size_t minhash_size = 0;
  /// Correlation policy.
  EcMode ec_mode = EcMode::kMinHashScreenExactVerify;
  /// Seed of the Min-Hash function.
  std::uint64_t seed = 0x5ca1ab1eULL;
};

/// Size statistics for the CKG-vs-AKG comparison (Section 7.4), of the
/// last processed quantum: reset when a quantum starts, and not saved.
struct AkgQuantumStats {
  /// Distinct keywords of the window's id sets (the CKG node count).
  std::size_t ckg_nodes = 0;
  /// Distinct keywords occurring in this quantum.
  std::size_t quantum_keywords = 0;
  /// Current AKG node count.
  std::size_t akg_nodes = 0;
  /// Current AKG edge count.
  std::size_t akg_edges = 0;
  /// Bursty keywords this quantum.
  std::size_t bursty = 0;
  /// Candidate pairs screened / EC computations done this quantum.
  std::size_t pairs_screened = 0;
  std::size_t ec_computed = 0;
};

/// Builds the AKG's per-quantum delta. The caller owns `maintainer` (its
/// clusters decide node retention) and applies each delta to it with
/// ScpMaintainer::Apply before the next quantum.
class AkgBuilder {
 public:
  AkgBuilder(const AkgConfig& config,
             const cluster::ScpMaintainer& maintainer);

  /// Processes one quantum of messages and returns the structural delta
  /// against the maintainer's graph; aborts if the last one was not
  /// applied, or if the quantum's index is not the one after the last.
  /// The quantum is first reduced to its canonical aggregate
  /// (AggregateQuantum, timed as engine.aggregate_ns).
  cluster::GraphDelta ProcessQuantum(const stream::Quantum& quantum);

  /// The AKG's edges, ascending: the edge list Save() writes, and the one
  /// a snapshot load rebuilds the maintainer's graph from
  /// (ScpMaintainer::Restore).
  std::vector<graph::Edge> CorrelatedEdges() const;

  /// Current EC of an AKG edge (0 if absent).
  double EdgeCorrelation(const graph::Edge& e) const;

  /// Node weight w_i for ranking: distinct users of the keyword in the
  /// window.
  std::size_t NodeWeight(KeywordId keyword) const {
    return id_sets_.WindowSupport(keyword);
  }

  /// Exports a cluster-level user signature: the Combine fold of the
  /// member keywords' current window signatures, bottom-p overall. Because
  /// Combine de-duplicates keys, a user active in several member keywords
  /// (or spamming one of them) still occupies exactly one slot — the
  /// result is a distinct-user signature of the whole cluster, suitable
  /// for persisting into the event store at report time. Keywords without
  /// a live signature contribute nothing. Deterministic for a given member
  /// list (callers pass the snapshot's sorted keyword set).
  MinHashSignature ExportClusterSketch(
      const std::vector<KeywordId>& keywords) const;

  /// Signature size p of the exported signatures (config-derived).
  std::size_t sketch_size() const;

  const UserIdSets& id_sets() const { return id_sets_; }
  const NodeStateAutomaton& node_state() const { return node_state_; }
  const AkgQuantumStats& last_stats() const { return last_stats_; }
  const AkgConfig& config() const { return config_; }

  /// Serializes the AKG layer's generating state — the id-set history,
  /// the node automaton's member rows, each member's published Min-Hash
  /// signature in member order and the edge correlations (the AKG's
  /// edges, ascending, bit-exact doubles) — in canonical order. The clock,
  /// the window table, the members' last-seen stamps, the hash function
  /// and last_stats() are not stored.
  void Save(BinaryWriter& out) const;

  /// Replaces this builder's state with Save()'s encoding; `clock` is the
  /// index of the last processed quantum (the caller's clock), from which
  /// the history's entries and the members' last-seen stamps are counted
  /// back. Must be called on a builder constructed with the same
  /// AkgConfig. Returns false on malformed input (a clock below the
  /// history's depth - 1 or at the top of the index range, a member no
  /// history entry holds, a signature not 1 to p ascending values, or a
  /// correlation out of order, with a non-member endpoint or an EC outside
  /// [0, 1], included); the builder is reset to empty in that case.
  bool Restore(BinaryReader& in, QuantumIndex clock);

 private:
  /// One signed keyword: the published signature, and the current window
  /// bottom-p, which the row transitions keep exact while `current_valid`.
  struct SignatureEntry {
    KeywordId keyword = 0;
    MinHashSignature published;
    MinHashSignature current;
    bool current_valid = false;
  };

  /// The published signature of `keyword`, or nullptr when it has none.
  const MinHashSignature* FindSignature(KeywordId keyword) const;

  /// The published signature of `keyword`, which must have one.
  const MinHashSignature& SignatureOf(KeywordId keyword) const;

  /// Step 4 of ProcessQuantum: carries the id sets' row transitions into
  /// every valid current bottom-p, then publishes the signatures of the
  /// `refresh` keywords (rescanning those without a valid one).
  void RefreshSignatures(const std::vector<KeywordId>& refresh);

  /// Steps 5-6 of ProcessQuantum: adds edges among the `bursty`
  /// keywords (Section 3.2.1 set (1)) and re-validates the edges of the
  /// `refresh` keywords (set (2)), recording both into `delta`.
  void CorrelateEdges(const std::vector<KeywordId>& bursty,
                      const std::vector<KeywordId>& refresh,
                      cluster::GraphDelta& delta);

  AkgConfig config_;
  const cluster::ScpMaintainer& maintainer_;
  UserIdSets id_sets_;
  NodeStateAutomaton node_state_;
  // Signs window id sets at refresh time (config p and seed).
  MinHasher hasher_;
  // Keys: the AKG's edges after the last processed quantum.
  std::unordered_map<graph::Edge, double, graph::EdgeHash> edge_ec_;
  // Keyword-ascending, keyed by exactly the members: a member is admitted
  // bursty, so refreshed, and eviction drops both.
  std::vector<SignatureEntry> signatures_;
  AkgQuantumStats last_stats_;
  QuantumIndex now_ = 0;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_AKG_BUILDER_H_
