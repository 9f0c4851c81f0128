#include "akg/akg_builder.h"

#include <algorithm>
#include <functional>
#include <unordered_set>
#include <utility>

#include "akg/quantum_aggregate.h"
#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scprt::akg {

using graph::Edge;

namespace {

std::size_t ResolveMinHashSize(const AkgConfig& config) {
  return config.minhash_size > 0
             ? config.minhash_size
             : DefaultMinHashSize(config.high_state_threshold,
                                  config.ec_threshold);
}

}  // namespace

AkgBuilder::AkgBuilder(const AkgConfig& config,
                       std::function<bool(KeywordId)> in_cluster)
    : config_(config),
      in_cluster_(std::move(in_cluster)),
      id_sets_(config.window_length),
      node_state_(config.high_state_threshold, config.window_length),
      hasher_(ResolveMinHashSize(config), config.seed) {
  SCPRT_CHECK(config.ec_threshold > 0.0 && config.ec_threshold <= 1.0);
  SCPRT_CHECK(in_cluster_ != nullptr);
}

double AkgBuilder::EdgeCorrelation(const Edge& e) const {
  auto it = edge_ec_.find(e);
  return it == edge_ec_.end() ? 0.0 : it->second;
}

GraphDelta AkgBuilder::ProcessQuantum(const stream::Quantum& quantum) {
  GraphDelta delta;
  delta.quantum = quantum.index;
  now_ = quantum.index;
  last_stats_ = AkgQuantumStats{};

  // --- 0. Reduce the quantum to its canonical (keyword, user) aggregate.
  //        Clock reads only, so the aggregate is the same with
  //        observability on or off. The timer keeps its engine.* name
  //        because the repository benchmark reads it. ---
  static obs::Histogram* const aggregate_hist =
      obs::Registry::Default().GetHistogram("engine.aggregate_ns");
  const QuantumAggregate aggregate = [&] {
    obs::ScopedSpan span("aggregate");
    obs::ScopedHistogramTimer timer(aggregate_hist);
    return AggregateQuantum(quantum);
  }();

  // --- 1. Ingest the quantum's (keyword, user) aggregate into the window
  //        id sets: one merge + expiry per keyword shard ---
  {
    // Id-set window fold cost; batch-level timing only — per-keyword
    // clocks would swamp the work.
    static obs::Histogram* const sketch_hist =
        obs::Registry::Default().GetHistogram("akg.sketch_ingest_ns");
    obs::ScopedSpan span("akg.sketch");
    obs::ScopedHistogramTimer timer(sketch_hist);
    id_sets_.IngestAggregate(aggregate);
  }

  // --- 2-3. Node state transitions and evictions ---
  std::vector<std::pair<KeywordId, std::uint32_t>> quantum_keywords;
  NodeStateUpdate update;
  {
    // Automaton and eviction cost: the keyword runs, the state sweep and
    // the removed nodes' edges.
    static obs::Histogram* const node_state_hist =
        obs::Registry::Default().GetHistogram("akg.node_state_ns");
    obs::ScopedSpan span("akg.node_state");
    obs::ScopedHistogramTimer timer(node_state_hist);

    // --- 2. Node state transitions (Section 3.1): each keyword run of
    //        the aggregate is the keyword's distinct users this quantum ---
    quantum_keywords = KeywordCounts(aggregate);
    update = node_state_.ProcessQuantum(now_, quantum_keywords, in_cluster_);
    delta.nodes_added = update.entered;

    // --- 3. Evict removed nodes and their edges ---
    for (KeywordId k : update.removed) {
      if (akg_.HasNode(k)) {
        for (KeywordId neighbor : akg_.Neighbors(k)) {
          const Edge e = Edge::Of(k, neighbor);
          delta.edges_removed.push_back(e);
          edge_ec_.erase(e);
        }
        akg_.RemoveNode(k);
      }
      signatures_.erase(k);
      delta.nodes_removed.push_back(k);
    }
    for (KeywordId k : update.entered) akg_.AddNode(k);
  }

  // --- 4. Refresh signatures of keywords whose id sets changed and are
  //        relevant this quantum: set (1) bursty + set (2) AKG-and-seen.
  //        Each signature is the bottom-p of the keyword's window id
  //        set. ---
  std::vector<KeywordId> refresh = update.bursty;
  refresh.insert(refresh.end(), update.seen_in_akg.begin(),
                 update.seen_in_akg.end());
  {
    // Window id-set bottom-p cost for the whole refresh batch.
    static obs::Histogram* const refresh_hist =
        obs::Registry::Default().GetHistogram("akg.signature_refresh_ns");
    obs::ScopedSpan span("akg.refresh");
    obs::ScopedHistogramTimer timer(refresh_hist);
    for (KeywordId k : refresh) {
      signatures_[k] = hasher_.Sketch(id_sets_.WindowUsers(k));
    }
  }

  // --- 5-6. Edge correlation: new edges among set (1), then lazy
  //          re-validation of the refreshed keywords' edges ---
  {
    // EC stage cost for the whole quantum: candidate join, screen, both
    // EC batches and their application.
    static obs::Histogram* const ec_hist =
        obs::Registry::Default().GetHistogram("akg.ec_ns");
    obs::ScopedSpan span("akg.ec");
    obs::ScopedHistogramTimer timer(ec_hist);
    CorrelateEdges(update.bursty, refresh, delta);
  }

  // --- 7. Stats snapshot (Section 7.4) ---
  last_stats_.ckg_nodes = node_state_.tracked_keywords();
  last_stats_.quantum_keywords = quantum_keywords.size();
  last_stats_.akg_nodes = akg_.node_count();
  last_stats_.akg_edges = akg_.edge_count();
  last_stats_.bursty = update.bursty.size();
  return delta;
}

void AkgBuilder::CorrelateEdges(const std::vector<KeywordId>& bursty,
                                const std::vector<KeywordId>& refresh,
                                GraphDelta& delta) {
  // --- 5. New edges among set (1) (Section 3.2.1): bucket-join on shared
  //        Min-Hash values to avoid the quadratic pair scan ---
  const double gamma = config_.ec_threshold;
  std::vector<std::pair<KeywordId, KeywordId>> candidates;
  if (config_.ec_mode == EcMode::kExact) {
    for (std::size_t i = 0; i < bursty.size(); ++i) {
      for (std::size_t j = i + 1; j < bursty.size(); ++j) {
        candidates.emplace_back(bursty[i], bursty[j]);
      }
    }
  } else {
    std::unordered_map<std::uint64_t, std::vector<KeywordId>> buckets;
    for (KeywordId k : bursty) {
      for (std::uint64_t h : signatures_[k]) buckets[h].push_back(k);
    }
    std::unordered_set<std::uint64_t> emitted;
    for (const auto& [h, members] : buckets) {
      if (members.size() < 2) continue;
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          KeywordId a = members[i], b = members[j];
          if (a > b) std::swap(a, b);
          const std::uint64_t key =
              (static_cast<std::uint64_t>(a) << 32) | b;
          if (emitted.insert(key).second) candidates.emplace_back(a, b);
        }
      }
    }
  }
  last_stats_.pairs_screened = candidates.size();

  // Screen each candidate (cheap signature comparison), then compute and
  // apply its EC in candidate order.
  for (const auto& [a, b] : candidates) {
    if (akg_.HasEdge(a, b)) continue;
    const MinHashSignature& sig_a = signatures_[a];
    const MinHashSignature& sig_b = signatures_[b];
    if (!PassesScreen(config_.ec_mode, sig_a, sig_b)) continue;
    ++last_stats_.ec_computed;
    const double ec =
        ComputeEc(config_.ec_mode, id_sets_, a, b, sig_a, sig_b, hasher_.p());
    if (ec >= gamma) {
      akg_.AddEdge(a, b);
      const Edge e = Edge::Of(a, b);
      edge_ec_[e] = ec;
      delta.edges_added.emplace_back(e, ec);
    }
  }

  // --- 6. Lazy re-validation (Section 3.2.1 set (2)): keywords seen this
  //        quantum update the EC with their current neighbors; edges whose
  //        correlation fell below gamma are dropped ---
  // The pair set is collected before any edge is removed: removing an
  // edge takes it out of Neighbors(), so collecting while removing would
  // skip pairs. EC reads only id sets and signatures, which the removals
  // do not touch. Results apply in collection order. The touched set is
  // exactly the signature-refresh set built in step 4.
  std::unordered_set<std::uint64_t> revalidated;
  std::vector<std::pair<KeywordId, KeywordId>> reval_jobs;
  for (KeywordId k : refresh) {
    if (!akg_.HasNode(k)) continue;
    for (KeywordId neighbor : akg_.Neighbors(k)) {
      KeywordId a = k, b = neighbor;
      if (a > b) std::swap(a, b);
      const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
      if (revalidated.insert(key).second) reval_jobs.emplace_back(a, b);
    }
  }
  last_stats_.ec_computed += reval_jobs.size();
  for (const auto& [a, b] : reval_jobs) {
    // The untouched endpoint's signature may be stale; EC is computed
    // from exact id sets except in kMinHashOnly mode.
    const double ec = ComputeEc(config_.ec_mode, id_sets_, a, b,
                                signatures_.at(a), signatures_.at(b),
                                hasher_.p());
    const Edge e = Edge::Of(a, b);
    if (ec < gamma) {
      akg_.RemoveEdge(a, b);
      edge_ec_.erase(e);
      delta.edges_removed.push_back(e);
    } else if (ec != edge_ec_[e]) {
      edge_ec_[e] = ec;
      delta.ec_updated.emplace_back(e, ec);
    }
  }
}

MinHashSignature AkgBuilder::ExportClusterSketch(
    const std::vector<KeywordId>& keywords) const {
  std::vector<MinHashSignature> parts;
  parts.reserve(keywords.size());
  for (KeywordId keyword : keywords) {
    const auto it = signatures_.find(keyword);
    if (it != signatures_.end() && !it->second.empty()) {
      parts.push_back(it->second);
    }
  }
  return MinHasher::CombineAll(parts, hasher_.p());
}

std::size_t AkgBuilder::sketch_size() const { return hasher_.p(); }

void AkgBuilder::Save(BinaryWriter& out) const {
  out.I64(now_);
  id_sets_.Save(out);
  node_state_.Save(out);
  akg_.Save(out);

  std::vector<KeywordId> signed_keywords;
  signed_keywords.reserve(signatures_.size());
  for (const auto& [keyword, _] : signatures_) {
    signed_keywords.push_back(keyword);
  }
  std::sort(signed_keywords.begin(), signed_keywords.end());
  out.U64(signed_keywords.size());
  for (KeywordId keyword : signed_keywords) {
    const MinHashSignature& sig = signatures_.at(keyword);
    out.U32(keyword);
    out.U32(static_cast<std::uint32_t>(sig.size()));
    for (std::uint64_t value : sig) out.U64(value);
  }

  std::vector<Edge> ec_edges;
  ec_edges.reserve(edge_ec_.size());
  for (const auto& [e, _] : edge_ec_) ec_edges.push_back(e);
  std::sort(ec_edges.begin(), ec_edges.end());
  out.U64(ec_edges.size());
  for (const Edge& e : ec_edges) {
    out.U32(e.u);
    out.U32(e.v);
    out.F64(edge_ec_.at(e));
  }

  out.U64(last_stats_.ckg_nodes);
  out.U64(last_stats_.quantum_keywords);
  out.U64(last_stats_.akg_nodes);
  out.U64(last_stats_.akg_edges);
  out.U64(last_stats_.bursty);
  out.U64(last_stats_.pairs_screened);
  out.U64(last_stats_.ec_computed);
}

bool AkgBuilder::Restore(BinaryReader& in) {
  const auto reset = [this] {
    akg_.Clear();
    edge_ec_.clear();
    signatures_.clear();
    last_stats_ = AkgQuantumStats{};
    now_ = 0;
  };
  reset();
  now_ = in.I64();
  if (!id_sets_.Restore(in) || !node_state_.Restore(in) ||
      !akg_.Restore(in)) {
    reset();
    return false;
  }

  const std::size_t p = hasher_.p();
  const std::uint64_t signatures = in.U64();
  bool valid = in.CheckLength(signatures, 4 + 4 + 8);
  for (std::uint64_t i = 0; valid && i < signatures; ++i) {
    const KeywordId keyword = in.U32();
    const std::uint32_t length = in.U32();
    // A signature holds at most p values by construction.
    if (length > p || !in.CheckLength(length, 8)) {
      valid = false;
      break;
    }
    MinHashSignature sig(length);
    for (std::uint32_t j = 0; j < length; ++j) sig[j] = in.U64();
    // Strictly ascending: the values are distinct hash keys.
    if (!in.ok() ||
        std::adjacent_find(sig.begin(), sig.end(),
                           std::greater_equal<std::uint64_t>()) !=
            sig.end()) {
      valid = false;
      break;
    }
    if (!signatures_.emplace(keyword, std::move(sig)).second) {
      valid = false;
      break;
    }
  }

  const std::uint64_t correlations = valid ? in.U64() : 0;
  valid = valid && in.CheckLength(correlations, 4 + 4 + 8);
  for (std::uint64_t i = 0; valid && i < correlations; ++i) {
    const KeywordId u = in.U32();
    const KeywordId v = in.U32();
    const double ec = in.F64();
    // Correlations exist exactly for AKG edges, in [0, 1].
    if (!in.ok() || u >= v || !akg_.HasEdge(u, v) || !(ec >= 0.0) ||
        !(ec <= 1.0) ||
        !edge_ec_.emplace(Edge{u, v}, ec).second) {
      valid = false;
      break;
    }
  }
  valid = valid && correlations == akg_.edge_count();

  // The lazy re-validation loop calls signatures_.at() on every AKG edge
  // endpoint, so that invariant must hold even for a forged payload with a
  // valid CRC — reject rather than crash later.
  if (valid) {
    for (const Edge& e : akg_.Edges()) {
      if (signatures_.count(e.u) == 0 || signatures_.count(e.v) == 0) {
        valid = false;
        break;
      }
    }
  }

  last_stats_.ckg_nodes = in.U64();
  last_stats_.quantum_keywords = in.U64();
  last_stats_.akg_nodes = in.U64();
  last_stats_.akg_edges = in.U64();
  last_stats_.bursty = in.U64();
  last_stats_.pairs_screened = in.U64();
  last_stats_.ec_computed = in.U64();

  if (!valid || !in.ok()) {
    reset();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::akg
