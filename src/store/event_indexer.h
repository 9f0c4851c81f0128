// Glue between the detection pipeline and the event store: an
// EventIndexer is the ClusterSink that turns every newly reported cluster
// into an LshIndex insert, committing on a configurable cadence.
//
// With commit_every == 1 (the default) every insert is committed before
// the detector's ProcessQuantum returns — so any event covered by a
// durability fence taken at the quantum boundary is already query-visible
// and crash-durable in the index. Larger cadences batch the fsync cost;
// checkpoint replay after a crash re-offers the lost tail and the index's
// (cluster, quantum) idempotency absorbs the overlap either way.
//
// OnCluster cannot return an error (the detector's hot path does not
// branch on its sink), so failures latch into last_error() and subsequent
// clusters are dropped until the caller inspects and clears it.

#ifndef SCPRT_STORE_EVENT_INDEXER_H_
#define SCPRT_STORE_EVENT_INDEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "detect/cluster_sink.h"
#include "durability/error.h"
#include "store/lsh_index.h"

namespace scprt::store {

/// The ClusterSink that inserts every newly reported cluster into an
/// LshIndex (see the file comment).
class EventIndexer : public detect::ClusterSink {
 public:
  /// `index` must outlive the indexer. `commit_every` == 0 means "never
  /// commit automatically" (the caller owns Commit timing; Flush() still
  /// works).
  explicit EventIndexer(LshIndex* index, std::uint32_t commit_every = 1);

  /// ClusterSink: insert (and maybe commit) one reported cluster. Keywords
  /// with no spelling are indexed under "#<id>" so a dictionary-less trace
  /// still round-trips through the store.
  void OnCluster(const detect::ReportedCluster& cluster) override;

  /// Commits whatever is pending. No-op when nothing is.
  durability::Error Flush();

  /// First error since the last clear (sticky; empty when healthy).
  const durability::Error& last_error() const { return last_error_; }
  void clear_error() { last_error_ = {}; }

  /// Clusters successfully handed to the index.
  std::uint64_t indexed() const { return indexed_; }

 private:
  LshIndex* index_;
  std::uint32_t commit_every_;
  std::uint32_t pending_ = 0;
  std::uint64_t indexed_ = 0;
  durability::Error last_error_;
};

}  // namespace scprt::store

#endif  // SCPRT_STORE_EVENT_INDEXER_H_
