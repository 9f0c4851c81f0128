#include "detect/detector.h"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_set>
#include <utility>

#include "detect/snapshot_io.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "rank/ranking.h"

namespace scprt::detect {

using cluster::Cluster;
using graph::Edge;

EventDetector::EventDetector(const DetectorConfig& config,
                             const text::KeywordDictionary* dictionary)
    : config_(config),
      dictionary_(dictionary),
      akg_(config.akg, maintainer_) {}

QuantumReport EventDetector::ProcessQuantum(const stream::Quantum& quantum) {
  maintainer_.SetClock(quantum.index);
  const cluster::GraphDelta delta = akg_.ProcessQuantum(quantum);

  {
    // Cluster maintenance cost of the whole delta per quantum.
    static obs::Histogram* const apply_hist =
        obs::Registry::Default().GetHistogram("cluster.apply_delta_ns");
    obs::ScopedSpan span("cluster.apply_delta");
    obs::ScopedHistogramTimer timer(apply_hist);
    maintainer_.Apply(delta);
  }
  {
    // State sizes after the quantum, as registry gauges: the window, the
    // AKG's edges, the live clusters and the keyword dictionary.
    static obs::Registry& registry = obs::Registry::Default();
    static obs::Gauge* const window_rows =
        registry.GetGauge("state.window_rows");
    static obs::Gauge* const window_keywords =
        registry.GetGauge("state.window_keywords");
    static obs::Gauge* const akg_edges = registry.GetGauge("state.akg_edges");
    static obs::Gauge* const live_clusters =
        registry.GetGauge("state.live_clusters");
    static obs::Gauge* const dictionary_entries =
        registry.GetGauge("state.dictionary_entries");
    const akg::UserIdSets& window = akg_.id_sets();
    window_rows->Set(static_cast<double>(window.window_rows()));
    window_keywords->Set(static_cast<double>(window.active_keywords()));
    akg_edges->Set(static_cast<double>(maintainer_.graph().edge_count()));
    live_clusters->Set(static_cast<double>(maintainer_.clusters().size()));
    if (dictionary_ != nullptr) {
      dictionary_entries->Set(static_cast<double>(dictionary_->size()));
    }
  }

  QuantumReport report;
  report.quantum = quantum.index;
  const akg::AkgQuantumStats& stats = akg_.last_stats();
  report.akg_nodes = stats.akg_nodes;
  report.akg_edges = stats.akg_edges;
  report.ckg_nodes = stats.ckg_nodes;
  report.bursty_keywords = stats.bursty;
  report.events = SnapshotEvents(quantum.index);
  if (cluster_sink_ != nullptr) {
    // Sink hand-off cost per quantum: spellings, cluster sketches and the
    // sink's own OnCluster work (the event store's indexing).
    static obs::Histogram* const sink_hist =
        obs::Registry::Default().GetHistogram("detect.sink_ns");
    obs::ScopedSpan span("detect.sink");
    obs::ScopedHistogramTimer timer(sink_hist);
    EmitToSink(report.events);
  }
  return report;
}

void EventDetector::EmitToSink(const std::vector<EventSnapshot>& events) {
  for (const EventSnapshot& snap : events) {
    if (!snap.newly_reported) continue;
    ReportedCluster cluster;
    cluster.snapshot = snap;
    if (dictionary_ != nullptr) {
      cluster.spellings.reserve(snap.keywords.size());
      for (KeywordId k : snap.keywords) {
        cluster.spellings.push_back(
            k < dictionary_->size() ? dictionary_->Spelling(k) : std::string());
      }
    }
    cluster.user_sketch = akg_.ExportClusterSketch(snap.keywords);
    cluster.sketch_p = akg_.sketch_size();
    cluster_sink_->OnCluster(cluster);
  }
}

EventSnapshot EventDetector::SnapshotCore(ClusterId id,
                                          const cluster::Cluster& cluster,
                                          QuantumIndex now) const {
  EventSnapshot snap;
  snap.cluster_id = id;
  snap.quantum = now;
  snap.born_at = cluster.born_at;
  snap.keywords = cluster.SortedNodes();
  snap.node_count = cluster.node_count();
  snap.edge_count = cluster.edge_count();

  // Each member's window run, read once: its length is the node weight
  // w_i, and the runs' union is the support.
  const std::vector<KeywordId>& members = snap.keywords;
  std::vector<std::span<const UserId>> runs(members.size());
  std::vector<double> weights(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    runs[i] = akg_.id_sets().WindowUsers(members[i]);
    weights[i] = static_cast<double>(runs[i].size());
  }
  const auto weight_of = [&members, &weights](graph::NodeId node) {
    return weights[static_cast<std::size_t>(
        std::lower_bound(members.begin(), members.end(), node) -
        members.begin())];
  };
  // Each edge's EC, read once, for the rank and the mean EC. Sorted edge
  // order: canonical float accumulation (see rank/ranking.cc).
  const std::vector<Edge> edges = cluster.SortedEdges();
  std::vector<rank::EdgeTerm> terms(edges.size());
  double ec_sum = 0.0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    terms[i] = {weight_of(e.u), weight_of(e.v), akg_.EdgeCorrelation(e)};
    ec_sum += terms[i].ec;
  }
  snap.rank = rank::ClusterRank(weights, terms);
  snap.avg_ec = edges.empty()
                    ? 0.0
                    : ec_sum / static_cast<double>(edges.size());
  // Support: distinct users over the window across member keywords.
  snap.support = akg::UserIdSets::UnionSupport(runs);
  return snap;
}

std::vector<EventSnapshot> EventDetector::SnapshotEvents(QuantumIndex now) {
  // Snapshot stage cost per quantum: support, rank, tracker and filters.
  static obs::Histogram* const snapshot_hist =
      obs::Registry::Default().GetHistogram("detect.snapshot_ns");
  obs::ScopedSpan span("detect.snapshot");
  obs::ScopedHistogramTimer timer(snapshot_hist);
  // Canonical cluster order: id ascending, so tracker observation and
  // first-report marking see the clusters in a fixed order.
  std::vector<std::pair<ClusterId, const Cluster*>> live_clusters;
  live_clusters.reserve(maintainer_.clusters().clusters().size());
  for (const auto& [id, cluster] : maintainer_.clusters().clusters()) {
    live_clusters.emplace_back(id, cluster.get());
  }
  std::sort(live_clusters.begin(), live_clusters.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<EventSnapshot> snapshots;
  std::unordered_set<ClusterId> live;
  for (const auto& [id, cluster] : live_clusters) {
    EventSnapshot snap = SnapshotCore(id, *cluster, now);
    live.insert(id);
    tracker_.Observe(id, rank::RankObservation{
                             now, snap.rank,
                             static_cast<std::uint32_t>(snap.node_count)});
    snap.likely_spurious = tracker_.IsLikelySpurious(id);

    if (!PassesFilters(snap)) continue;
    snap.newly_reported = reported_.insert(id).second;
    snapshots.push_back(std::move(snap));
  }

  // Garbage-collect tracker state of dead clusters (merged or dissolved).
  for (ClusterId id : tracker_.TrackedIds()) {
    if (!live.count(id)) tracker_.Forget(id);
  }

  std::sort(snapshots.begin(), snapshots.end(),
            [](const EventSnapshot& a, const EventSnapshot& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              return a.cluster_id < b.cluster_id;
            });
  return snapshots;
}

void EventDetector::SaveState(BinaryWriter& out,
                              const stream::Quantizer& quantizer) const {
  out.I64(quantizer.next_index());
  snapshot_io::WriteMessages(out, quantizer.pending());
  akg_.Save(out);
  maintainer_.Save(out);
  tracker_.Save(out);
  std::vector<ClusterId> reported(reported_.begin(), reported_.end());
  std::sort(reported.begin(), reported.end());
  out.U64(reported.size());
  for (ClusterId id : reported) out.U64(id);
}

bool EventDetector::RestoreState(BinaryReader& in,
                                 stream::Quantizer& quantizer) {
  // The quantizer's clock is the only stored one: the AKG layer counts its
  // history back from the last processed quantum, next_index - 1. The next
  // quantum's index must fit, and one history entry per quantum means at
  // least depth quanta were processed (checked by the AKG builder).
  const QuantumIndex next_index = in.I64();
  std::vector<stream::Message> pending;
  if (next_index < 0 ||
      next_index == std::numeric_limits<QuantumIndex>::max() ||
      !snapshot_io::ReadMessages(in, pending) ||
      !quantizer.Restore(next_index, std::move(pending))) {
    in.Fail();
    return false;
  }
  // One AKG edge list: the maintainer's graph is rebuilt from the
  // correlations.
  if (!akg_.Restore(in, next_index - 1) ||
      !maintainer_.Restore(in, akg_.CorrelatedEdges()) ||
      !tracker_.Restore(in)) {
    return false;
  }
  reported_.clear();
  const std::uint64_t reported = in.U64();
  if (!in.CheckLength(reported, 8)) return false;
  reported_.reserve(reported);
  for (std::uint64_t i = 0; i < reported; ++i) {
    if (!reported_.insert(in.U64()).second) {
      in.Fail();
      return false;
    }
  }
  return in.ok();
}

bool EventDetector::PassesFilters(const EventSnapshot& snapshot) const {
  if (snapshot.node_count < config_.min_event_nodes) return false;
  if (config_.min_rank_margin > 0.0) {
    const double floor = rank::MinRankThreshold(
        config_.akg.high_state_threshold, config_.akg.ec_threshold,
        config_.min_rank_margin);
    if (snapshot.rank < floor) return false;
  }
  if (config_.require_noun && dictionary_ != nullptr) {
    bool has_noun = false;
    for (KeywordId k : snapshot.keywords) {
      if (k < dictionary_->size() && dictionary_->IsNoun(k)) {
        has_noun = true;
        break;
      }
    }
    if (!has_noun) return false;
  }
  return true;
}

}  // namespace scprt::detect
