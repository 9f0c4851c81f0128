// Live ingest metrics: lock-free counters written by the reader, the
// tokenizer workers and the collector, snapshotable at any time from any
// thread (a monitoring thread polls Snapshot() while the pipeline runs).
//
// Since the obs layer landed this is a facade: every counter is a handle
// into an obs::Registry (Registry::Default() unless a test injects its
// own), so the same numbers the pipeline reports through Snapshot() are
// visible to Registry::SnapshotAll() — one Prometheus scrape or flat JSON
// export covers ingest, engine, and durability together, and is the only
// machine-readable encoding of them. The per-run API: Reset() re-baselines
// before each Run(), Snapshot() copies into a typed struct, Format()
// renders the human line. Only the run's start timestamp stays local — it
// describes this pipeline instance, not the process.

#ifndef SCPRT_INGEST_METRICS_H_
#define SCPRT_INGEST_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/registry.h"

namespace scprt::ingest {

/// Point-in-time copy of the counters, plus derived rates.
struct IngestSnapshot {
  std::uint64_t records_read = 0;     ///< pulled from the source
  std::uint64_t malformed = 0;        ///< skipped by the source as unparsable
  std::uint64_t admitted = 0;         ///< accepted into staging queues
  std::uint64_t shed = 0;             ///< dropped by the admission policy
  std::uint64_t messages_emitted = 0; ///< delivered to the sink
  std::uint64_t quanta_emitted = 0;   ///< quanta cut by the assembler
  std::uint64_t tokens = 0;           ///< raw tokens produced by workers
  std::uint64_t keywords = 0;         ///< keywords surviving filters
  std::uint64_t tokenize_ns = 0;      ///< summed worker tokenize time
  std::uint64_t peak_queue_depth = 0; ///< max staging depth ever observed
  std::uint64_t queue_depth = 0;      ///< staging depth at snapshot time
  std::uint64_t checkpoints = 0;      ///< checkpoints written this run
  std::uint64_t checkpoint_bytes = 0; ///< bytes written to checkpoints
  std::uint64_t checkpoint_ns = 0;    ///< wall time spent checkpointing
  std::uint64_t commits = 0;          ///< durable commits (WAL appends incl.)
  std::uint64_t commit_bytes = 0;     ///< bytes written by commits
  std::uint64_t commit_ns = 0;        ///< wall time stalled on commits
  std::uint64_t checkpoint_failures = 0; ///< commit attempts that failed
  std::uint64_t sync_failures = 0;    ///< fsync/fdatasync calls that failed
  double recovery_seconds = 0;        ///< load+seek cost of a resume, else 0
  double elapsed_seconds = 0;         ///< wall time (Run() start to snapshot)

  /// Source-to-sink throughput; 0 before any time elapses.
  double MessagesPerSecond() const {
    return elapsed_seconds > 0
               ? static_cast<double>(messages_emitted) / elapsed_seconds
               : 0.0;
  }
  /// Mean tokenize cost per emitted message, in microseconds.
  double TokenizeMicrosPerMessage() const {
    return messages_emitted > 0 ? static_cast<double>(tokenize_ns) / 1e3 /
                                      static_cast<double>(messages_emitted)
                                : 0.0;
  }
  /// Mean cost of one checkpoint, in milliseconds (the durability tax the
  /// operator trades against recovery-point age — docs/operations.md).
  double CheckpointMillis() const {
    return checkpoints > 0 ? static_cast<double>(checkpoint_ns) / 1e6 /
                                 static_cast<double>(checkpoints)
                           : 0.0;
  }
  /// Mean stall of one durable commit, in microseconds: the per-quantum
  /// WAL cost, against CheckpointMillis for the commits that also wrote a
  /// segment.
  double CommitMicros() const {
    return commits > 0 ? static_cast<double>(commit_ns) / 1e3 /
                             static_cast<double>(commits)
                       : 0.0;
  }

  /// One-line human rendering.
  std::string Format() const;
};

/// The live counters. Writers use relaxed atomics — counts are statistics,
/// not synchronization; the pipeline's queues order the data itself.
class IngestMetrics {
 public:
  /// Binds to `registry`, or to obs::Registry::Default() when null.
  /// Tests that need isolation from the process-wide registry pass their
  /// own; the pipeline default keeps all instances on the shared one
  /// (instances are per-run and Reset() re-baselines).
  explicit IngestMetrics(obs::Registry* registry = nullptr);

  void AddRecordsRead(std::uint64_t n) { records_read_->Add(n); }
  void AddMalformed(std::uint64_t n) { malformed_->Add(n); }
  void AddAdmitted(std::uint64_t n) { admitted_->Add(n); }
  void AddShed(std::uint64_t n) { shed_->Add(n); }
  void AddMessagesEmitted(std::uint64_t n) { messages_emitted_->Add(n); }
  void AddQuantaEmitted(std::uint64_t n) { quanta_emitted_->Add(n); }
  void AddTokens(std::uint64_t n) { tokens_->Add(n); }
  void AddKeywords(std::uint64_t n) { keywords_->Add(n); }
  void AddTokenizeNs(std::uint64_t n) { tokenize_ns_->Add(n); }

  /// One checkpoint written: its size and the wall time it cost.
  void AddCheckpoint(std::uint64_t bytes, std::uint64_t ns) {
    checkpoints_->Increment();
    checkpoint_bytes_->Add(bytes);
    checkpoint_ns_->Add(ns);
  }

  /// One durable commit (a WAL record append, plus a segment when the
  /// commit also counts as a checkpoint): its size and the pipeline stall
  /// it cost.
  void AddCommit(std::uint64_t bytes, std::uint64_t ns) {
    commits_->Increment();
    commit_bytes_->Add(bytes);
    commit_ns_->Add(ns);
  }

  /// A commit attempt failed (typed reason lives with the caller); the
  /// stream keeps flowing, the recovery point ages.
  void AddCheckpointFailure() { checkpoint_failures_->Increment(); }

  /// An fsync/fdatasync failed: bytes may be in the kernel, but the
  /// commit's power-loss durability could not be established.
  void AddSyncFailure(std::uint64_t n) { sync_failures_->Add(n); }

  /// Recovery cost (load + delta replay + source seek) of the resume that
  /// preceded this run, exported as the ingest.recovery_seconds gauge.
  /// Survives Reset() — it describes how the run began.
  void SetRecoveryNs(std::uint64_t ns) {
    recovery_seconds_->Set(static_cast<double>(ns) / 1e9);
  }

  /// Records the staging depth just observed: raises the lifetime peak
  /// watermark and sets the current-depth gauge. The pair separates a
  /// one-off spike (peak high, current low) from sustained backpressure
  /// (both high) — the signal the admission controller will walk on.
  void ObserveQueueDepth(std::uint64_t depth) {
    peak_queue_depth_->MaxWith(depth);
    queue_depth_->Set(static_cast<double>(depth));
  }

  /// Zeroes every counter and restamps the elapsed-time baseline; each
  /// IngestPipeline::Run starts from a clean slate so the returned
  /// snapshot describes that run alone.
  void Reset();

  /// Copies every counter; callable concurrently with writers.
  IngestSnapshot Snapshot() const;

 private:
  obs::Counter* records_read_;
  obs::Counter* malformed_;
  obs::Counter* admitted_;
  obs::Counter* shed_;
  obs::Counter* messages_emitted_;
  obs::Counter* quanta_emitted_;
  obs::Counter* tokens_;
  obs::Counter* keywords_;
  obs::Counter* tokenize_ns_;
  obs::Counter* peak_queue_depth_;
  obs::Gauge* queue_depth_;
  obs::Counter* checkpoints_;
  obs::Counter* checkpoint_bytes_;
  obs::Counter* checkpoint_ns_;
  obs::Counter* commits_;
  obs::Counter* commit_bytes_;
  obs::Counter* commit_ns_;
  obs::Counter* checkpoint_failures_;
  obs::Counter* sync_failures_;
  obs::Gauge* recovery_seconds_;
  std::atomic<std::int64_t> start_ns_{0};
};

}  // namespace scprt::ingest

#endif  // SCPRT_INGEST_METRICS_H_
