// Checkpoint-aware ingest: a raw-text deployment that survives crashes.
//
// DurableIngest wires a durability::WalBackend into the IngestPipeline.
// While the pipeline runs, every cut quantum is handed to the backend at
// the quantum boundary — under the engine's ShardPool::Quiesce fence, on
// the driver thread — together with the deployment's frontend state:
//
//   * the assembler's quantizer clock + pending partial quantum (the
//     outermost accumulation point of the ingest path),
//   * the live keyword dictionary, the admission policy/seed, the source
//     cursor of the record that closed the quantum, and the stream
//     counters (snapshot_io::IngestState).
//
// The backend commits one CRC-framed log record per quantum with group
// commit, cuts full-snapshot segments on the full cadence, and keeps a
// MANIFEST + CURRENT pair naming the generation in force — so a crash
// loses at most the quantum in flight.
//
// Resume() asks the backend to recover the newest durable generation,
// re-installs the dictionary, admission seeds and stream counters, and
// Run() then Seek()s the source back to the saved cursor and replays only
// the tail since the recovered fence. Replayed records re-enter the normal
// tokenize/intern path with shedding suppressed until the first successful
// post-resume commit (RunOptions::suppress_shedding; the resume runbook in
// docs/operations.md), so the post-restore report stream is
// bit-identical to a never-restarted pipeline's at any worker and engine
// thread count — tests/ingest_checkpoint_test.cc proves it seeded and
// fresh-dictionary. Recovery cost is surfaced as a first-class metric
// (the ingest.recovery_seconds gauge, also IngestSnapshot::recovery_seconds,
// and the checkpoint_* and commit_* counters);
// commit failures surface typed (IngestSnapshot::checkpoint_failures /
// sync_failures, last_error()).

#ifndef SCPRT_INGEST_DURABLE_H_
#define SCPRT_INGEST_DURABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "durability/backend.h"
#include "durability/wal_backend.h"
#include "engine/parallel_detector.h"
#include "ingest/assembler.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "text/concurrent_dictionary.h"

namespace scprt::ingest {

/// Durability cadence and placement.
struct DurableConfig {
  /// Directory the durability files live in (created if missing).
  std::string directory;
  /// Read by nothing: the WAL is the only backend. The field remains only
  /// because the repository benchmark (perfbench/src/live.cc) assigns it;
  /// drop it together with that assignment.
  durability::BackendKind backend = durability::BackendKind::kWal;
  /// How aggressively commits are fsynced (see durability::FsyncLevel).
  durability::FsyncLevel fsync = durability::FsyncLevel::kNone;
  /// Every quantum is committed to the log; K is the group-commit fsync
  /// interval in quanta. (0 disables the count trigger; at least one of
  /// the two triggers must stay enabled.)
  std::size_t checkpoint_quanta = 8;
  /// Also fsync when T seconds passed since the last sync, evaluated at
  /// quantum boundaries (0 disables the time trigger).
  double checkpoint_seconds = 0.0;
  /// A full-snapshot segment is cut every checkpoint_quanta *
  /// full_interval quanta (1 = a segment every K quanta).
  std::size_t full_interval = 4;
};

/// What Resume() found.
struct ResumeResult {
  enum class Outcome {
    /// No durable files — the session starts from scratch.
    kFresh,
    /// State restored; Run() will seek the source and continue.
    kResumed,
    /// Durable files exist but none could be restored.
    kFailed,
  };
  Outcome outcome = Outcome::kFresh;
  /// Typed reason of the *newest* failing artifact when anything failed
  /// to load (also set when an older generation rescued the resume).
  durability::Error error;
  /// Human-readable trail: which files loaded, which were skipped and why.
  std::string detail;
  /// Artifacts actually restored (empty when not resumed): the segment,
  /// and the log whose records were replayed on top (empty when none
  /// were).
  std::string segment_path;
  std::string wal_path;
  /// Stream coordinates the session will continue from.
  std::uint64_t next_seq = 0;
  QuantumIndex next_quantum = 0;
  SourcePosition cursor;
};

/// A durable ingest session: owns the dictionary, the sharded engine, the
/// pipeline and the WAL backend. Construct, optionally Resume(),
/// then Run() — possibly repeatedly (each Run continues the stream where
/// the previous one ended).
class DurableIngest {
 public:
  DurableIngest(const IngestConfig& ingest,
                const engine::ParallelDetectorConfig& engine,
                const DurableConfig& durable);
  ~DurableIngest();

  DurableIngest(const DurableIngest&) = delete;
  DurableIngest& operator=(const DurableIngest&) = delete;

  /// Restores the newest recoverable generation from the directory. Call
  /// at most once, before the first Run(). A missing or empty directory
  /// is a fresh start, not an error.
  ResumeResult Resume();

  /// Pumps `source` through the pipeline into the engine, committing
  /// every quantum boundary. After a successful
  /// Resume() the source is first Seek()ed to the saved cursor; returns
  /// nullopt (nothing consumed) when that seek fails — an unseekable
  /// source cannot replay its tail. `on_report` (optional) observes every
  /// quantum report. `flush_partial` keeps the live end-of-stream
  /// semantics (report on the trailing partial quantum); pass false when
  /// this Run is a segment of a longer stream — the partial stays pending
  /// and the next Run (or the commit + resume path) continues it.
  std::optional<IngestSnapshot> Run(MessageSource& source,
                                    QuantumAssembler::ReportFn on_report,
                                    bool flush_partial = true);

  /// The live vocabulary (grows across runs and restarts). Writable so a
  /// fresh deployment can SeedFrom() a known vocabulary before the first
  /// Run — a resumed one restores its dictionary from the checkpoint and
  /// must not be pre-seeded (RestoreState requires an empty dictionary).
  text::ConcurrentKeywordDictionary& dictionary() { return dictionary_; }
  const text::ConcurrentKeywordDictionary& dictionary() const {
    return dictionary_;
  }

  /// The sharded engine driving detection.
  engine::ParallelDetector& engine() { return *engine_; }

  /// Live counters (poll from any thread while Run is in flight). Valid
  /// after the first Run() started.
  const IngestMetrics* metrics() const {
    return pipeline_ != nullptr ? &pipeline_->metrics() : nullptr;
  }

  /// Commits that failed (the stream keeps flowing; the recovery point
  /// just ages until the next attempt succeeds).
  std::uint64_t checkpoint_failures() const { return checkpoint_failures_; }

  /// Typed reason of the most recent commit failure (ok() when none yet).
  const durability::Error& last_error() const { return last_error_; }

  /// Log records replayed during the last Resume().
  std::uint64_t replayed_quanta() const { return replayed_quanta_; }

  const IngestConfig& ingest_config() const { return ingest_config_; }

 private:
  /// The assembler ProcessFn: detect, then hand the boundary to the
  /// backend.
  detect::QuantumReport ProcessQuantum(const stream::Quantum& quantum);

  IngestConfig ingest_config_;
  engine::ParallelDetectorConfig engine_config_;

  text::ConcurrentKeywordDictionary dictionary_;
  std::unique_ptr<engine::ParallelDetector> engine_;
  std::unique_ptr<IngestPipeline> pipeline_;
  durability::WalBackend backend_;

  // Stream coordinates carried across runs and restarts.
  std::uint64_t next_seq_ = 0;
  std::uint64_t quanta_cut_total_ = 0;
  std::uint64_t records_read_base_ = 0;
  std::uint64_t shed_base_ = 0;

  std::uint64_t checkpoint_failures_ = 0;
  std::uint64_t sync_failures_seen_ = 0;
  durability::Error last_error_;
  // Lossless-replay window: set when a resumed Run starts with shedding
  // suppressed, cleared at the first successful post-resume commit.
  bool suppression_active_ = false;

  // Resume state consumed by the next Run().
  bool resume_pending_ = false;
  bool resume_consumed_ = false;
  SourcePosition resume_cursor_;
  std::vector<stream::Message> resume_pending_messages_;
  QuantumIndex resume_next_quantum_ = 0;
  std::uint64_t resume_ns_ = 0;
  std::uint64_t replayed_quanta_ = 0;

  // Active-run wiring (driver thread only).
  QuantumAssembler* active_assembler_ = nullptr;
};

}  // namespace scprt::ingest

#endif  // SCPRT_INGEST_DURABLE_H_
