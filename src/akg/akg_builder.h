// Per-quantum AKG construction (Section 3): consumes the message stream,
// maintains the two-state node automaton, id sets and Min-Hash signatures,
// and emits the node/edge delta that the cluster maintainer applies.
//
// The window id sets are the only window state. A keyword's signature is
// the bottom-p of its window id set, computed only when the keyword is
// refreshed (bursty, or an AKG node seen this quantum); nothing is sketched
// for the rest of the quantum's vocabulary.

#ifndef SCPRT_AKG_AKG_BUILDER_H_
#define SCPRT_AKG_AKG_BUILDER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "akg/correlation.h"
#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "akg/node_state.h"
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

/// The per-quantum structural delta for the cluster maintainer. Application
/// order: nodes_removed (removes their incident edges), edges_removed,
/// edges_added. `ec_updated` carries re-computed correlations of surviving
/// edges (ranking input, no structural effect).
struct GraphDelta {
  QuantumIndex quantum = 0;
  std::vector<KeywordId> nodes_added;
  std::vector<KeywordId> nodes_removed;
  std::vector<std::pair<graph::Edge, double>> edges_added;
  std::vector<graph::Edge> edges_removed;
  std::vector<std::pair<graph::Edge, double>> ec_updated;
};

/// Size statistics for the CKG-vs-AKG comparison (Section 7.4).
struct AkgQuantumStats {
  /// Distinct keywords tracked over the window horizon (~ CKG nodes).
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

/// Builds and maintains the AKG. The caller owns the cluster layer and
/// passes an `in_cluster` predicate for the node-retention rule.
class AkgBuilder {
 public:
  AkgBuilder(const AkgConfig& config,
             std::function<bool(KeywordId)> in_cluster);

  /// Processes one quantum of messages and returns the structural delta.
  /// The quantum is first reduced to its canonical aggregate
  /// (AggregateQuantum, timed as engine.aggregate_ns).
  GraphDelta ProcessQuantum(const stream::Quantum& quantum);

  /// The AKG as a graph (mirror of what the deltas described).
  const graph::DynamicGraph& akg() const { return akg_; }

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

  /// Serializes every derived structure of the AKG layer — id-set window
  /// histories, node automaton, Min-Hash signatures, edge correlations
  /// (bit-exact doubles), the graph and the quantum clock — in canonical
  /// order. The hash function itself is config-derived and not stored.
  void Save(BinaryWriter& out) const;

  /// Replaces this builder's state with Save()'s encoding. Must be called
  /// on a builder constructed with the same AkgConfig. Returns false on
  /// malformed input; the builder is reset to empty in that case.
  bool Restore(BinaryReader& in);

 private:
  /// Steps 5-6 of ProcessQuantum: adds edges among the `bursty`
  /// keywords (Section 3.2.1 set (1)) and re-validates the edges of the
  /// `refresh` keywords (set (2)), recording both into `delta`.
  void CorrelateEdges(const std::vector<KeywordId>& bursty,
                      const std::vector<KeywordId>& refresh,
                      GraphDelta& delta);

  AkgConfig config_;
  std::function<bool(KeywordId)> in_cluster_;
  UserIdSets id_sets_;
  NodeStateAutomaton node_state_;
  // Signs window id sets at refresh time (config p and seed).
  MinHasher hasher_;
  graph::DynamicGraph akg_;
  std::unordered_map<graph::Edge, double, graph::EdgeHash> edge_ec_;
  std::unordered_map<KeywordId, MinHashSignature> signatures_;
  AkgQuantumStats last_stats_;
  QuantumIndex now_ = 0;
};

}  // namespace scprt::akg

#endif  // SCPRT_AKG_AKG_BUILDER_H_
