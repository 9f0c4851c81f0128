// The report-time export hook: consumers that persist reported clusters
// (the LSH event store, store/event_indexer.h) implement ClusterSink and
// attach it to the detector or the engine. The sink fires inside
// ProcessQuantum, before the caller sees the report — so anything the sink
// persists is already on its way to disk when a durability backend fences
// the same quantum boundary (the ordering the store's crash-consistency
// rule relies on; see docs/formats.md).

#ifndef SCPRT_DETECT_CLUSTER_SINK_H_
#define SCPRT_DETECT_CLUSTER_SINK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "akg/minhash.h"
#include "detect/event.h"

namespace scprt::detect {

/// One newly reported cluster, with everything an index needs and the
/// report itself does not carry.
struct ReportedCluster {
  /// The snapshot exactly as the QuantumReport carries it.
  EventSnapshot snapshot;
  /// Keyword spellings aligned with snapshot.keywords. Empty when the
  /// detector has no dictionary (trace-only runs without text).
  std::vector<std::string> spellings;
  /// Distinct-user Min-Hash signature merged over the member keywords
  /// (akg::AkgBuilder::ExportClusterSketch) — one slot per user no matter
  /// how many messages they sent.
  akg::MinHashSignature user_sketch;
  /// Signature size p the sketch was built under.
  std::size_t sketch_p = 0;
};

/// Receives every newly reported cluster, in report order (rank
/// descending), on the detector's driver thread. Implementations must not
/// call back into the detector.
class ClusterSink {
 public:
  virtual ~ClusterSink() = default;
  virtual void OnCluster(const ReportedCluster& cluster) = 0;
};

}  // namespace scprt::detect

#endif  // SCPRT_DETECT_CLUSTER_SINK_H_
