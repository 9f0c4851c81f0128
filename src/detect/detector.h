// The single-writer detection core: quantum -> AKG delta (the AKG builder
// reduces the quantum to its aggregate first) -> incremental SCP clusters
// -> ranked event reports. This is the system of the paper, assembled;
// engine::ParallelDetector (engine/parallel_detector.h) is the driver that
// cuts the message stream into quanta and feeds it.

#ifndef SCPRT_DETECT_DETECTOR_H_
#define SCPRT_DETECT_DETECTOR_H_

#include <unordered_set>
#include <vector>

#include "akg/akg_builder.h"
#include "cluster/maintenance.h"
#include "common/binary_io.h"
#include "detect/cluster_sink.h"
#include "detect/config.h"
#include "detect/event.h"
#include "rank/rank_tracker.h"
#include "stream/message.h"
#include "stream/quantizer.h"
#include "text/keyword_dictionary.h"

namespace scprt::detect {

/// Single-threaded detection core. The engine hands it one quantum at a
/// time and gets that quantum's QuantumReport.
class EventDetector {
 public:
  /// `dictionary` is optional and only consulted by the noun filter and by
  /// report formatting; pass nullptr to disable both (the noun filter is
  /// then skipped regardless of config.require_noun). The dictionary must
  /// outlive the detector.
  EventDetector(const DetectorConfig& config,
                const text::KeywordDictionary* dictionary);

  /// Processes one quantum and returns its report. Every quantum after the
  /// first must have the index after the last one's (the AKG layer aborts
  /// otherwise).
  QuantumReport ProcessQuantum(const stream::Quantum& quantum);

  /// Attaches a sink that receives every newly reported cluster (with its
  /// spellings and deduped user sketch) inside ProcessQuantum,
  /// before the report is returned — so a durability fence taken after the
  /// quantum always covers what the sink saw. nullptr detaches. The sink
  /// must outlive the detector or be detached first; it does not take part
  /// in SaveState/RestoreState (re-fired events are the sink's to dedup).
  void set_cluster_sink(ClusterSink* sink) { cluster_sink_ = sink; }

  const cluster::ScpMaintainer& maintainer() const { return maintainer_; }
  const akg::AkgBuilder& akg() const { return akg_; }
  const DetectorConfig& config() const { return config_; }
  const rank::RankTracker& rank_tracker() const { return tracker_; }

  /// Ids of clusters that have ever been reported (first-report set).
  const std::unordered_set<ClusterId>& reported_ids() const {
    return reported_;
  }

  /// Serializes `quantizer`'s clock (the state's only clock: the AKG layer
  /// counts back from it) and pending partial quantum (the driver owns
  /// accumulation), then the generating state — AKG layer (whose edge list
  /// is also the maintainer's graph), SCP clusters (with their ids and
  /// birth stamps), rank histories, first-report set — in canonical order.
  /// Statistics are not saved. The config is NOT
  /// included; durability/backend.h frames config + state into the
  /// versioned snapshot format (detect/snapshot_io.h).
  void SaveState(BinaryWriter& out, const stream::Quantizer& quantizer) const;

  /// Restores SaveState()'s encoding into this freshly constructed
  /// detector (same config required — the caller guarantees it by
  /// constructing from the snapshot's own config section); the clock and
  /// pending partial quantum go into `quantizer`. Returns false on
  /// malformed input (a clock below 0, below the AKG history's depth or
  /// at the top of the index range included); the detector must then be
  /// discarded.
  bool RestoreState(BinaryReader& in, stream::Quantizer& quantizer);

 private:
  /// Builds the ranked, filtered snapshot list for the current state.
  std::vector<EventSnapshot> SnapshotEvents(QuantumIndex now);

  /// Computes the tracker-independent fields of one cluster's snapshot
  /// (pure reads of the maintainer and AKG).
  EventSnapshot SnapshotCore(ClusterId id, const cluster::Cluster& cluster,
                             QuantumIndex now) const;

  /// True if the cluster passes the report filters (size, rank, noun).
  bool PassesFilters(const EventSnapshot& snapshot) const;

  /// Fires cluster_sink_ for every newly reported event in `events`.
  void EmitToSink(const std::vector<EventSnapshot>& events);

  DetectorConfig config_;
  ClusterSink* cluster_sink_ = nullptr;
  const text::KeywordDictionary* dictionary_;
  cluster::ScpMaintainer maintainer_;
  akg::AkgBuilder akg_;
  rank::RankTracker tracker_;
  std::unordered_set<ClusterId> reported_;
};

}  // namespace scprt::detect

#endif  // SCPRT_DETECT_DETECTOR_H_
