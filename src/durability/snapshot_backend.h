// The cadence full/delta checkpoint scheme behind the Backend API.
//
// This is the behavior ingest::DurableIngest carried inline before the
// durability tier existed: every `commit_quanta` quanta (or
// `commit_seconds`, whichever first) write a checkpoint file — every
// `full_interval`th a full snapshot, the ones between deltas chained to it
// — as full-NNNNNN.ckpt / delta-NNNNNN.ckpt via tmp + rename, keeping one
// whole fallback generation and garbage-collecting older ones. New here:
// fsync levels (full snapshots sync at kInterval, everything at
// kEveryCommit) and typed errors for write, sync and rename failures.

#ifndef SCPRT_DURABILITY_SNAPSHOT_BACKEND_H_
#define SCPRT_DURABILITY_SNAPSHOT_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "durability/backend.h"
#include "stream/message.h"

namespace scprt::durability {

class SnapshotBackend : public Backend {
 public:
  explicit SnapshotBackend(const BackendOptions& options);

  BackendKind kind() const override { return BackendKind::kSnapshot; }
  RecoverResult Recover(const RecoverOptions& options) override;
  CommitResult Commit(engine::ParallelDetector& engine,
                      const CommitContext& ctx) override;
  std::uint64_t sync_failures() const override { return sync_failures_; }

 private:
  /// Deletes checkpoint files older than `keep_from_ordinal`.
  void CollectGarbage(std::uint64_t keep_from_ordinal);

  BackendOptions options_;
  /// Id of the last full snapshot written — the base deltas chain to.
  std::uint64_t base_id_ = 0;
  /// Quanta processed since that full snapshot, oldest first: the body of
  /// the next delta.
  std::vector<stream::Quantum> log_;

  std::uint64_t ordinal_ = 0;  // next file ordinal
  std::uint64_t prev_full_ordinal_ = 0;
  std::size_t checkpoints_since_full_ = 0;
  bool have_full_ = false;
  std::size_t full_dictionary_size_ = 0;  // vocab size at the last full
  std::size_t quanta_since_checkpoint_ = 0;
  std::int64_t last_checkpoint_ns_ = 0;
  std::uint64_t sync_failures_ = 0;
};

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_SNAPSHOT_BACKEND_H_
