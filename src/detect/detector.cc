#include "detect/detector.h"

#include <algorithm>
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
      akg_(config.akg,
           [this](KeywordId k) {
             return maintainer_.clusters().NodeInAnyCluster(k);
           }) {}

QuantumReport EventDetector::ProcessQuantum(const stream::Quantum& quantum) {
  maintainer_.SetClock(quantum.index);
  const akg::GraphDelta delta = akg_.ProcessQuantum(quantum);

  {
    // Cluster maintenance cost of the whole delta per quantum.
    static obs::Histogram* const apply_hist =
        obs::Registry::Default().GetHistogram("cluster.apply_delta_ns");
    obs::ScopedSpan span("cluster.apply_delta");
    obs::ScopedHistogramTimer timer(apply_hist);
    // Structural application order: node evictions (which drop their
    // incident edges inside the maintainer too), then edge drops, then
    // edge adds.
    for (KeywordId k : delta.nodes_removed) maintainer_.RemoveNode(k);
    for (const Edge& e : delta.edges_removed) {
      maintainer_.RemoveEdge(e.u, e.v);
    }
    for (const auto& [e, ec] : delta.edges_added) {
      (void)ec;  // correlations live in the AKG builder
      maintainer_.AddEdge(e.u, e.v);
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
  const rank::EcFn ec = [this](const Edge& e) {
    return akg_.EdgeCorrelation(e);
  };
  const rank::WeightFn weight = [this](graph::NodeId n) {
    return static_cast<double>(akg_.NodeWeight(n));
  };

  EventSnapshot snap;
  snap.cluster_id = id;
  snap.quantum = now;
  snap.born_at = cluster.born_at;
  snap.keywords = cluster.SortedNodes();
  snap.node_count = cluster.node_count();
  snap.edge_count = cluster.edge_count();
  snap.rank = rank::ClusterRank(cluster, ec, weight);
  // Sorted edge order: canonical float accumulation (see rank/ranking.cc).
  double ec_sum = 0.0;
  for (const Edge& e : cluster.SortedEdges()) {
    ec_sum += akg_.EdgeCorrelation(e);
  }
  snap.avg_ec = cluster.edge_count() == 0
                    ? 0.0
                    : ec_sum / static_cast<double>(cluster.edge_count());
  // Support: distinct users over the window across member keywords.
  snap.support = akg_.id_sets().UnionSupport(snap.keywords);
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
  const QuantumIndex next_index = in.I64();
  std::vector<stream::Message> pending;
  if (!snapshot_io::ReadMessages(in, pending) ||
      !quantizer.Restore(next_index, std::move(pending))) {
    in.Fail();
    return false;
  }
  if (!akg_.Restore(in) || !maintainer_.Restore(in) ||
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
