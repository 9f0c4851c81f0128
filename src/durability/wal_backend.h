// The log-structured durability tier behind the Backend API.
//
// Layout of a WAL directory (all numbers from one monotonic sequence):
//
//   seg-NNNNNN.snap   immutable full-snapshot segment (a snapshot_io full
//                     frame with IngestState — loadable by
//                     LoadEngineSnapshot like any checkpoint)
//   wal-NNNNNN.log    the write-ahead log of the generation anchored at
//                     that segment (block/fragment framing of
//                     durability/log_format.h)
//   MANIFEST-NNNNNN   the (segment, wal) recovery recipe (manifest.h)
//   CURRENT           one line naming the manifest in force
//
// Commit appends one logical record per quantum: a snapshot_io delta
// payload (one quantum + the pending partial quantum + the quantizer
// clock, chained to the segment's checkpoint id) followed by an
// IngestState section whose dictionary blob is only the tail interned
// since the previous record — each commit is O(quantum), never O(state).
// Group commit: records reach the kernel at every commit (process-crash
// durable); fdatasync runs per FsyncLevel — every commit, on the
// checkpoint cadence, or never.
//
// Every `commit_quanta * full_interval` quanta the backend cuts a new
// generation: segment → manifest → CURRENT rename (the commit point) →
// new log. Generations older than the previous one are garbage-collected.
//
// Recovery = CURRENT's manifest (falling back to the newest decodable
// manifest, then to older generations if the named segment is damaged),
// restore the segment, then replay the log's newest consistent prefix:
// the first damaged, truncated or out-of-sequence record ends the replay
// (torn-tail tolerance — see LogReader). Resume is bit-identical to a
// never-restarted run; the source replays the few records after the last
// durable fence through the normal ingest path.

#ifndef SCPRT_DURABILITY_WAL_BACKEND_H_
#define SCPRT_DURABILITY_WAL_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "durability/backend.h"
#include "durability/log_writer.h"
#include "durability/manifest.h"
#include "durability/posix_file.h"

namespace scprt::durability {

/// Payload kind byte leading every logical WAL record.
inline constexpr std::uint8_t kWalRecordDelta = 1;

class WalBackend : public Backend {
 public:
  explicit WalBackend(const BackendOptions& options);

  BackendKind kind() const override { return BackendKind::kWal; }
  RecoverResult Recover(const RecoverOptions& options) override;
  CommitResult Commit(engine::ParallelDetector& engine,
                      const CommitContext& ctx) override;
  std::uint64_t sync_failures() const override { return sync_failures_; }

 private:
  /// Cuts a new generation at the current fence: segment (subsuming the
  /// quantum just processed), manifest, CURRENT, fresh log, GC.
  CommitResult CutGeneration(engine::ParallelDetector& engine,
                             const CommitContext& ctx);

  /// Appends one quantum record to the live log, syncing per FsyncLevel.
  CommitResult AppendRecord(const CommitContext& ctx);

  /// Retires every numbered file older than the previous generation.
  void CollectGarbage();

  std::string PathOf(const std::string& name) const;

  BackendOptions options_;
  /// Quanta between generation cuts (the full-snapshot cadence).
  std::size_t segment_interval_quanta_ = 0;

  std::uint64_t next_file_number_ = 1;
  bool have_generation_ = false;
  std::uint64_t base_checkpoint_id_ = 0;
  std::uint64_t segment_number_ = 0;
  std::uint64_t wal_number_ = 0;
  /// Segment number of the previous generation (GC keeps files >= this).
  std::uint64_t prev_segment_number_ = 0;
  bool have_prev_generation_ = false;

  std::unique_ptr<AppendFile> wal_file_;
  std::unique_ptr<LogWriter> writer_;

  /// Dictionary size watermark of the last persisted record (each record
  /// carries only the tail interned since the previous one).
  std::size_t last_dictionary_size_ = 0;

  std::size_t quanta_since_segment_ = 0;
  std::size_t appends_since_sync_ = 0;
  std::int64_t last_sync_ns_ = 0;
  std::int64_t last_segment_ns_ = 0;
  std::uint64_t sync_failures_ = 0;
};

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_WAL_BACKEND_H_
