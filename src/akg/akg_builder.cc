#include "akg/akg_builder.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
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
                       const cluster::ScpMaintainer& maintainer)
    : config_(config),
      maintainer_(maintainer),
      id_sets_(config.window_length),
      node_state_(config.high_state_threshold, config.window_length),
      hasher_(ResolveMinHashSize(config), config.seed) {
  SCPRT_CHECK(config.ec_threshold > 0.0 && config.ec_threshold <= 1.0);
}

const MinHashSignature* AkgBuilder::FindSignature(KeywordId keyword) const {
  const auto it = std::lower_bound(
      signatures_.begin(), signatures_.end(), keyword,
      [](const SignatureEntry& entry, KeywordId k) {
        return entry.keyword < k;
      });
  return it != signatures_.end() && it->keyword == keyword ? &it->published
                                                           : nullptr;
}

const MinHashSignature& AkgBuilder::SignatureOf(KeywordId keyword) const {
  const MinHashSignature* signature = FindSignature(keyword);
  SCPRT_CHECK(signature != nullptr);
  return *signature;
}

double AkgBuilder::EdgeCorrelation(const Edge& e) const {
  auto it = edge_ec_.find(e);
  return it == edge_ec_.end() ? 0.0 : it->second;
}

std::vector<Edge> AkgBuilder::CorrelatedEdges() const {
  std::vector<Edge> edges;
  edges.reserve(edge_ec_.size());
  for (const auto& [e, _] : edge_ec_) edges.push_back(e);
  std::sort(edges.begin(), edges.end());
  return edges;
}

cluster::GraphDelta AkgBuilder::ProcessQuantum(
    const stream::Quantum& quantum) {
  // The maintainer's graph is the AKG as of the previous quantum.
  const graph::DynamicGraph& akg = maintainer_.graph();
  SCPRT_CHECK(akg.edge_count() == edge_ec_.size());
  // The id sets stamp their history by position (a load reads the members'
  // last-seen quanta from it), so every quantum after the first must be
  // the one after the last.
  SCPRT_CHECK(id_sets_.depth() == 0 ||
              (now_ < std::numeric_limits<QuantumIndex>::max() &&
               quantum.index == now_ + 1));
  cluster::GraphDelta delta;
  now_ = quantum.index;
  last_stats_ = AkgQuantumStats{};

  // --- 0. Reduce the quantum to its canonical (keyword, user) aggregate.
  //        Clock reads only, so the aggregate is the same with
  //        observability on or off. The timer keeps its engine.* name
  //        because the repository benchmark reads it. ---
  static obs::Histogram* const aggregate_hist =
      obs::Registry::Default().GetHistogram("engine.aggregate_ns");
  QuantumAggregate aggregate;
  std::vector<std::pair<KeywordId, std::uint32_t>> quantum_keywords;
  {
    obs::ScopedSpan span("aggregate");
    obs::ScopedHistogramTimer timer(aggregate_hist);
    aggregate = AggregateQuantum(quantum);
    // Each keyword run of the aggregate is the keyword's distinct users
    // this quantum: step 2's input, read before step 1 takes the pairs.
    quantum_keywords = KeywordCounts(aggregate);
  }

  // --- 1. Ingest the quantum's (keyword, user) aggregate into the window
  //        id sets: one merge + expiry of the window table; the pairs
  //        become the quantum's history entry ---
  {
    // Id-set window fold cost; batch-level timing only — per-keyword
    // clocks would swamp the work.
    static obs::Histogram* const sketch_hist =
        obs::Registry::Default().GetHistogram("akg.sketch_ingest_ns");
    obs::ScopedSpan span("akg.sketch");
    obs::ScopedHistogramTimer timer(sketch_hist);
    id_sets_.IngestAggregate(std::move(aggregate));
  }

  // --- 2-3. Node state transitions and evictions ---
  NodeStateUpdate update;
  {
    // Automaton and eviction cost: the member merge and state sweep, and
    // the removed nodes' correlations.
    static obs::Histogram* const node_state_hist =
        obs::Registry::Default().GetHistogram("akg.node_state_ns");
    obs::ScopedSpan span("akg.node_state");
    obs::ScopedHistogramTimer timer(node_state_hist);

    // --- 2. Node state transitions (Section 3.1) ---
    update = node_state_.ProcessQuantum(
        now_, quantum_keywords, [this](KeywordId k) {
          return maintainer_.clusters().NodeInAnyCluster(k);
        });

    // --- 3. Evict removed nodes: drop their correlations and signatures.
    //        The maintainer's RemoveNode drops their edges. ---
    for (KeywordId k : update.removed) {
      if (akg.HasNode(k)) {
        for (KeywordId neighbor : akg.Neighbors(k)) {
          edge_ec_.erase(Edge::Of(k, neighbor));
        }
      }
    }
    if (!update.removed.empty()) {
      // The automaton lists the removed keywords ascending.
      std::erase_if(signatures_, [&update](const SignatureEntry& entry) {
        return std::binary_search(update.removed.begin(),
                                  update.removed.end(), entry.keyword);
      });
    }
    delta.nodes_removed = update.removed;
  }

  // --- 4. Refresh signatures of keywords whose id sets changed and are
  //        relevant this quantum: set (1) bursty + set (2) AKG-and-seen
  //        and not evicted. Each signature is the bottom-p of the
  //        keyword's window id set, kept current from the fold's row
  //        transitions. ---
  std::vector<KeywordId> refresh = update.bursty;
  std::set_difference(update.seen_in_akg.begin(), update.seen_in_akg.end(),
                      update.removed.begin(), update.removed.end(),
                      std::back_inserter(refresh));
  {
    // Signature cost per quantum: the transition merge and the refresh
    // batch.
    static obs::Histogram* const refresh_hist =
        obs::Registry::Default().GetHistogram("akg.signature_refresh_ns");
    obs::ScopedSpan span("akg.refresh");
    obs::ScopedHistogramTimer timer(refresh_hist);
    RefreshSignatures(refresh);
  }

  // --- 5-6. Edge correlation: new edges among set (1), then lazy
  //          re-validation of the refreshed keywords' edges ---
  {
    // EC stage cost for the whole quantum: join, screen, both EC batches.
    static obs::Histogram* const ec_hist =
        obs::Registry::Default().GetHistogram("akg.ec_ns");
    obs::ScopedSpan span("akg.ec");
    obs::ScopedHistogramTimer timer(ec_hist);
    CorrelateEdges(update.bursty, refresh, delta);
  }

  // --- 7. Stats snapshot (Section 7.4) ---
  last_stats_.ckg_nodes = id_sets_.active_keywords();
  last_stats_.quantum_keywords = quantum_keywords.size();
  last_stats_.akg_nodes = node_state_.akg_size();
  last_stats_.akg_edges = edge_ec_.size();
  last_stats_.bursty = update.bursty.size();
  return delta;
}

void AkgBuilder::RefreshSignatures(const std::vector<KeywordId>& refresh) {
  // 4a. The row transitions against the table, both keyword-ascending.
  //     A current bottom-p holds the p smallest keys of the window set
  //     (all of them when the set has at most p), so a leaving key changes
  //     it iff the key is at most the largest held: the entry goes invalid.
  //     Entering users are new to the set: each key joins when fewer than
  //     p are held or when it beats the largest, which then drops out.
  const std::size_t p = hasher_.p();
  const std::span<const std::uint64_t> left = id_sets_.left();
  const std::span<const std::uint64_t> entered = id_sets_.entered();
  std::size_t l = 0, e = 0;
  for (SignatureEntry& entry : signatures_) {
    const KeywordId keyword = entry.keyword;
    // Moves `i` to the keyword's first pair and returns its run's end.
    const auto run = [keyword](std::span<const std::uint64_t> pairs,
                               std::size_t& i) {
      while (i < pairs.size() && PairKeyword(pairs[i]) < keyword) ++i;
      std::size_t end = i;
      while (end < pairs.size() && PairKeyword(pairs[end]) == keyword) ++end;
      return end;
    };
    const std::size_t left_end = run(left, l);
    const std::size_t entered_end = run(entered, e);
    MinHashSignature& current = entry.current;
    for (; entry.current_valid && l < left_end; ++l) {
      entry.current_valid = !current.empty() &&
                            hasher_.Key(PairUser(left[l])) > current.back();
    }
    for (; entry.current_valid && e < entered_end; ++e) {
      const std::uint64_t key = hasher_.Key(PairUser(entered[e]));
      if (current.size() == p) {
        if (key >= current.back()) continue;
        current.pop_back();
      }
      current.insert(std::upper_bound(current.begin(), current.end(), key),
                     key);
    }
    l = left_end;
    e = entered_end;
  }

  // 4b. Publish the refreshed keywords' bottom-p, rescanning the window
  //     run of each entry without a valid one. Keywords new to the table
  //     are appended in order and merged in at the end.
  static obs::Counter* const refreshed =
      obs::Registry::Default().GetCounter("akg.signatures_refreshed");
  static obs::Counter* const rescanned =
      obs::Registry::Default().GetCounter("akg.signatures_rescanned");
  std::vector<KeywordId> keys = refresh;
  std::sort(keys.begin(), keys.end());
  const std::size_t signed_before = signatures_.size();
  std::size_t rescans = 0;
  for (std::size_t t = 0; KeywordId keyword : keys) {
    while (t < signed_before && signatures_[t].keyword < keyword) ++t;
    const bool known = t < signed_before && signatures_[t].keyword == keyword;
    if (!known) signatures_.emplace_back().keyword = keyword;
    SignatureEntry& entry = known ? signatures_[t] : signatures_.back();
    if (!entry.current_valid) {
      entry.current = hasher_.Sketch(id_sets_.WindowUsers(keyword));
      entry.current_valid = true;
      ++rescans;
    }
    entry.published = entry.current;
  }
  std::inplace_merge(signatures_.begin(),
                     signatures_.begin() +
                         static_cast<std::ptrdiff_t>(signed_before),
                     signatures_.end(),
                     [](const SignatureEntry& a, const SignatureEntry& b) {
                       return a.keyword < b.keyword;
                     });
  refreshed->Add(keys.size());
  rescanned->Add(rescans);
}

void AkgBuilder::CorrelateEdges(const std::vector<KeywordId>& bursty,
                                const std::vector<KeywordId>& refresh,
                                cluster::GraphDelta& delta) {
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
      for (std::uint64_t h : SignatureOf(k)) buckets[h].push_back(k);
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

  // Compute and record each new candidate's EC in candidate order. The
  // candidates need no further screen: kExact pairs every two bursty
  // keywords, and in the Min-Hash modes both keywords of a pair come from
  // one bucket of the published signatures, so they share that value.
  // Bursty keywords are never evicted, so the previous quantum's graph
  // answers HasEdge.
  const graph::DynamicGraph& akg = maintainer_.graph();
  for (const auto& [a, b] : candidates) {
    if (akg.HasEdge(a, b)) continue;
    const MinHashSignature& sig_a = SignatureOf(a);
    const MinHashSignature& sig_b = SignatureOf(b);
    ++last_stats_.ec_computed;
    // Below gamma the pair is dropped, so its EC need not be exact.
    const double ec = ComputeEc(config_.ec_mode, id_sets_, a, b, sig_a,
                                sig_b, hasher_.p(), gamma);
    if (ec >= gamma) {
      const Edge e = Edge::Of(a, b);
      edge_ec_[e] = ec;
      delta.edges_added.push_back(e);
    }
  }

  // --- 6. Lazy re-validation (Section 3.2.1 set (2)): keywords seen this
  //        quantum update the EC with their non-evicted neighbors in the
  //        previous quantum's graph (step 5's new edges need no second
  //        pass); edges whose correlation fell below gamma are dropped, in
  //        collection order ---
  std::unordered_set<std::uint64_t> revalidated;
  std::vector<std::pair<KeywordId, KeywordId>> reval_jobs;
  for (KeywordId k : refresh) {
    if (!akg.HasNode(k)) continue;
    for (KeywordId neighbor : akg.Neighbors(k)) {
      if (!node_state_.InAkg(neighbor)) continue;
      KeywordId a = k, b = neighbor;
      if (a > b) std::swap(a, b);
      const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
      if (revalidated.insert(key).second) reval_jobs.emplace_back(a, b);
    }
  }
  last_stats_.ec_computed += reval_jobs.size();
  for (const auto& [a, b] : reval_jobs) {
    // The untouched endpoint's signature may be stale; EC is computed
    // from exact id sets except in kMinHashOnly mode. Below gamma the edge
    // is removed, so its EC need not be exact.
    const double ec = ComputeEc(config_.ec_mode, id_sets_, a, b,
                                SignatureOf(a), SignatureOf(b),
                                hasher_.p(), gamma);
    const Edge e = Edge::Of(a, b);
    if (ec < gamma) {
      edge_ec_.erase(e);
      delta.edges_removed.push_back(e);
    } else {
      edge_ec_[e] = ec;
    }
  }
}

MinHashSignature AkgBuilder::ExportClusterSketch(
    const std::vector<KeywordId>& keywords) const {
  std::vector<MinHashSignature> parts;
  parts.reserve(keywords.size());
  for (KeywordId keyword : keywords) {
    const MinHashSignature* signature = FindSignature(keyword);
    if (signature != nullptr && !signature->empty()) {
      parts.push_back(*signature);
    }
  }
  return MinHasher::CombineAll(parts, hasher_.p());
}

std::size_t AkgBuilder::sketch_size() const { return hasher_.p(); }

void AkgBuilder::Save(BinaryWriter& out) const {
  id_sets_.Save(out);
  node_state_.Save(out);

  // The signature table's keys are exactly the members (a member is
  // admitted bursty, so signed, and eviction drops both), so its rows
  // follow the member rows without a keyword column.
  const std::vector<KeywordId> members = node_state_.Members();
  SCPRT_CHECK(members.size() == signatures_.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const MinHashSignature& published = signatures_[i].published;
    SCPRT_CHECK(signatures_[i].keyword == members[i]);
    out.U32(static_cast<std::uint32_t>(published.size()));
    for (std::uint64_t value : published) out.U64(value);
  }

  const std::vector<Edge> edges = CorrelatedEdges();
  out.U64(edges.size());
  for (const Edge& e : edges) {
    out.U32(e.u);
    out.U32(e.v);
    out.F64(edge_ec_.at(e));
  }
}

bool AkgBuilder::Restore(BinaryReader& in, QuantumIndex clock) {
  const auto reset = [this] {
    id_sets_ = UserIdSets(config_.window_length);
    node_state_ = NodeStateAutomaton(config_.high_state_threshold,
                                     config_.window_length);
    edge_ec_.clear();
    signatures_.clear();
    now_ = 0;
  };
  reset();
  now_ = clock;
  // A member's last-seen quantum is the newest history entry that holds
  // it, counted back from the clock.
  const auto last_seen = [this](KeywordId keyword) {
    const std::optional<std::size_t> age = id_sets_.QuantaSinceSeen(keyword);
    return age.has_value()
               ? std::optional(now_ - static_cast<QuantumIndex>(*age))
               : std::nullopt;
  };
  // The clock is the history's newest quantum: indices count from 0, so it
  // is at least depth - 1, and the next quantum's index must fit.
  if (!id_sets_.Restore(in) ||
      now_ < static_cast<QuantumIndex>(id_sets_.depth()) - 1 ||
      now_ == std::numeric_limits<QuantumIndex>::max() ||
      !node_state_.Restore(in, last_seen)) {
    reset();
    in.Fail();
    return false;
  }

  // One published signature per member, in member order: 1 to p strictly
  // ascending hash keys (a member is signed while it has window users).
  const std::size_t p = hasher_.p();
  const std::vector<KeywordId> members = node_state_.Members();
  signatures_.reserve(members.size());
  bool valid = true;
  for (std::size_t i = 0; valid && i < members.size(); ++i) {
    const std::uint32_t length = in.U32();
    if (length < 1 || length > p || !in.CheckLength(length, 8)) {
      valid = false;
      break;
    }
    MinHashSignature sig(length);
    for (std::uint32_t j = 0; j < length; ++j) sig[j] = in.U64();
    if (!in.ok() ||
        std::adjacent_find(sig.begin(), sig.end(),
                           std::greater_equal<std::uint64_t>()) !=
            sig.end()) {
      valid = false;
      break;
    }
    // Every current bottom-p starts invalid: the first refresh rescans.
    SignatureEntry& entry = signatures_.emplace_back();
    entry.keyword = members[i];
    entry.published = std::move(sig);
  }

  // The correlations are the AKG's edges: strictly ascending as Save
  // writes them, between two members, each EC in [0, 1].
  const std::uint64_t correlations = valid ? in.U64() : 0;
  valid = valid && in.CheckLength(correlations, 4 + 4 + 8);
  Edge last{};
  for (std::uint64_t i = 0; valid && i < correlations; ++i) {
    const Edge e{in.U32(), in.U32()};
    const double ec = in.F64();
    if (!in.ok() || e.u >= e.v || (i > 0 && !(last < e)) ||
        !node_state_.InAkg(e.u) || !node_state_.InAkg(e.v) || !(ec >= 0.0) ||
        !(ec <= 1.0)) {
      valid = false;
      break;
    }
    edge_ec_.emplace(e, ec);
    last = e;
  }

  if (!valid || !in.ok()) {
    reset();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::akg
