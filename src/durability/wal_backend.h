// The durability backend: a write-ahead log over full-snapshot segments.
//
// Layout of a WAL directory (all numbers from one monotonic sequence):
//
//   seg-NNNNNN.snap   immutable full-snapshot segment (a snapshot_io full
//                     frame with IngestState — loadable by
//                     LoadEngineSnapshot like any checkpoint); the commit
//                     point of its generation
//   wal-MMMMMM.log    the write-ahead log of that generation, M = N + 1
//                     (length + CRC framed records, durability/wal_record.h)
//
// Commit appends one record per quantum: the quantum, the engine's
// pending partial quantum and an IngestState section whose dictionary
// blob is only the tail interned since the previous record, chained to
// the segment's checkpoint id — each commit is O(quantum), never
// O(state). Group commit: records reach the kernel at every commit
// (process-crash durable); fdatasync runs per FsyncLevel — every commit,
// on the checkpoint cadence, or never.
//
// Every `commit_quanta * full_interval` quanta the backend cuts a new
// generation: segment (tmp + rename — the commit point), then its log.
// Once the rename lands the new segment is the live generation: no record
// is ever appended to an older log, and a log that fails to open makes
// the next commit cut again. Generations older than the previous one are
// garbage-collected.
//
// Recovery tries segments newest first: load the segment, restore its
// dictionary, then replay its log's newest consistent prefix, applying
// each accepted record as it is read. The first damaged or out-of-sequence
// record ends the replay, and a torn final append reads as a clean end
// (see LogReader); a segment that does not load falls back to the previous
// generation. Resume is bit-identical to a never-restarted run; the
// source replays the few records after the last durable fence through the
// normal ingest path. A directory holding only checkpoint files of the
// retired snapshot backend (full-/delta-*.ckpt) fails recovery with
// kVersionSkew rather than reading as empty.
//
// Not thread-safe — the ingest driver thread owns the backend, exactly as
// it owns the engine.

#ifndef SCPRT_DURABILITY_WAL_BACKEND_H_
#define SCPRT_DURABILITY_WAL_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "durability/backend.h"
#include "durability/posix_file.h"

namespace scprt::durability {

/// Persists an engine and its ingest state into one WAL directory, and
/// recovers the newest durable state from it (see the file comment).
class WalBackend {
 public:
  /// Creates `options.directory` if missing.
  explicit WalBackend(const BackendOptions& options);

  /// Recovers the newest durable generation. Call at most once, before
  /// the first Commit. An empty directory is kFresh, not an error.
  RecoverResult Recover(const RecoverOptions& options);

  /// One quantum boundary: appends the quantum's log record, or cuts a
  /// new generation when the segment cadence is due (always on the first
  /// Commit). `engine` has processed `ctx.quantum`; `ctx.state`'s
  /// frontend fields describe this fence.
  CommitResult Commit(const engine::ParallelDetector& engine,
                      const CommitContext& ctx);

  /// fsync/fdatasync failures observed so far (commits may still have
  /// landed; their power-loss durability is what failed).
  std::uint64_t sync_failures() const { return sync_failures_; }

 private:
  /// Cuts a new generation at the current fence: segment (subsuming the
  /// quantum just processed), then its fresh log, then GC.
  CommitResult CutGeneration(const engine::ParallelDetector& engine,
                             const CommitContext& ctx);

  /// Appends one quantum record to the live log, syncing per FsyncLevel.
  CommitResult AppendRecord(const engine::ParallelDetector& engine,
                            const CommitContext& ctx);

  /// Counts a failed fsync/fdatasync of a segment or log in
  /// sync_failures() and the `wal.sync_failures` counter.
  void NoteSyncFailure();

  /// Retires every numbered file older than the previous generation.
  void CollectGarbage();

  std::string PathOf(const std::string& name) const;

  BackendOptions options_;
  /// Quanta between generation cuts (the full-snapshot cadence).
  std::size_t segment_interval_quanta_ = 0;

  std::uint64_t next_file_number_ = 1;
  /// The newest segment on disk this session knows of (cut or recovered)
  /// and the checkpoint id its log records chain to.
  bool have_segment_ = false;
  std::uint64_t segment_number_ = 0;
  std::uint64_t base_checkpoint_id_ = 0;
  /// Segment number of the previous generation (GC keeps files >= this).
  std::uint64_t prev_segment_number_ = 0;
  bool have_prev_segment_ = false;

  /// The live segment's log; null when none is open for appending (before
  /// the first cut, after a failed append or a failed open), which makes
  /// the next Commit cut a new generation.
  std::unique_ptr<AppendFile> wal_file_;

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
