// The durability tier's shared vocabulary and its one-shot snapshot API.
//
// Durability is one scheme: durability::WalBackend (wal_backend.h). Every
// quantum appends one CRC-framed record to a write-ahead log
// (durability/log_format.h), and full-snapshot segments are cut on a
// cadence; the atomically renamed segment is its generation's commit
// point. Commit stall is O(quantum), not O(state); recovery is the newest
// segment that loads + its log's consistent prefix, with torn-tail
// tolerance. A crash loses at most the quantum in flight.
//
// The driver (ingest::DurableIngest) calls WalBackend::Commit() once per
// cut quantum, on the driver thread, after the engine has processed it.
// Resume is bit-identical to a never-restarted run at any worker count
// (tests/ingest_checkpoint_test.cc).
//
// This header holds what the backend's callers share: the fsync levels,
// the placement/cadence options, and the Commit/Recover contexts and
// results. It is also the one way to save or restore an engine directly:
// SaveSnapshot / LoadEngineSnapshot are the only implementations of full
// save and full load, both reporting durability::Error.
//
// Snapshot strategy: native structural snapshots. A snapshot serializes
// the derived state itself — the id-set window histories, node automaton,
// Min-Hash signatures and edge correlations of the AKG layer, the graph
// and its SCP clusters (with their ids, birth stamps and the id counter),
// the rank-tracker histories, the first-report set, and the quantizer
// clock with the partial quantum — framed and CRC-protected by
// detect/snapshot_io.h. Restoring deserializes those structures directly:
//
//   * Restore cost is O(|state|), independent of the traffic that produced
//     it (no replay of w quanta of raw messages).
//   * Cluster ids and birth stamps survive the restore, so event identity
//     is continuous across a crash and "NEW" markers do not refire.
//   * The subsequent report stream is bit-identical to a never-restarted
//     engine's (tests/checkpoint_property_test.cc).
//   * Corrupt input (truncation, bit flips, version skew, forged lengths)
//     makes the loader fail with a typed Error; it never crashes, aborts
//     or over-allocates (tests/checkpoint_fuzz_test.cc).
//
// Keyword ids are dictionary-relative; restore with the same dictionary
// (or a superset that preserves ids).

#ifndef SCPRT_DURABILITY_BACKEND_H_
#define SCPRT_DURABILITY_BACKEND_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "detect/snapshot_io.h"
#include "durability/error.h"
#include "engine/parallel_detector.h"
#include "text/concurrent_dictionary.h"

namespace scprt::durability {

/// The durability scheme a deployment runs. The WAL is the only one; the
/// enum survives as ingest::DurableConfig::backend's type, a field nothing
/// reads (see its comment).
enum class BackendKind : std::uint8_t {
  kWal = 1,
};

/// How aggressively commits are made power-loss durable. All levels keep
/// process-crash durability (bytes reach the kernel at every commit).
enum class FsyncLevel : std::uint8_t {
  /// Never fsync; the OS flushes on its own schedule.
  kNone = 0,
  /// fsync on the checkpoint cadence (every `commit_quanta` commits or
  /// `commit_seconds`, whichever first) — the group-commit middle ground.
  kInterval = 1,
  /// fsync every commit before acknowledging it.
  kEveryCommit = 2,
};

/// Stable names for flags/JSON ("none"/"interval"/"commit") and the
/// matching parser (false on unknown spellings).
const char* FsyncLevelName(FsyncLevel level);
bool ParseFsyncLevel(std::string_view text, FsyncLevel& level);

/// Placement and cadence of the WAL backend.
struct BackendOptions {
  /// Directory the durability files live in (created if missing).
  std::string directory;
  FsyncLevel fsync = FsyncLevel::kNone;
  /// Checkpoint cadence in quanta: every quantum is committed to the log;
  /// this is the group-commit fsync interval. 0 disables the count
  /// trigger (then `commit_seconds` must be set).
  std::size_t commit_quanta = 8;
  /// Time trigger in seconds, evaluated at quantum boundaries (0 off).
  double commit_seconds = 0.0;
  /// A full-snapshot segment is cut every `commit_quanta * full_interval`
  /// quanta (or `commit_seconds * full_interval` seconds).
  std::size_t full_interval = 4;
};

/// Everything one quantum boundary hands the backend. The frontend fields
/// of `state` (cursor, seq, counters, admission) are filled by the caller;
/// the dictionary fields are left empty — the backend serializes the full
/// blob (segments) or the tail since the previous record (log records).
/// The clock and pending partial quantum at the fence are the engine's
/// own: a commit runs right after the quantum was cut, when the cutting
/// quantizer holds nothing pending and its clock equals the engine's.
struct CommitContext {
  /// The quantum that just closed (already applied to the engine).
  const stream::Quantum* quantum = nullptr;
  /// The live vocabulary.
  const text::ConcurrentKeywordDictionary* dictionary = nullptr;
  /// Frontend state at this fence (dictionary fields ignored).
  detect::snapshot_io::IngestState state;
};

/// What one Commit() did.
struct CommitResult {
  /// Failure of this boundary's persistence attempt (kNone when
  /// everything landed). The stream keeps flowing either way; the
  /// recovery point just ages until the next attempt succeeds.
  Error error;
  /// State at this fence became durable (a log record or a segment
  /// landed). False when the attempt failed.
  bool persisted = false;
  /// This boundary cut a new generation (a segment landed).
  bool checkpoint = false;
  /// Bytes written and wall time stalled by this boundary.
  std::uint64_t bytes = 0;
  std::uint64_t stall_ns = 0;
};

struct RecoverOptions {
  /// The deployment's dictionary; must be empty (recovery installs the
  /// persisted vocabulary into it).
  text::ConcurrentKeywordDictionary* dictionary = nullptr;
};

/// What recovery found.
struct RecoverResult {
  enum class Outcome {
    kFresh,      ///< nothing durable — start from scratch
    kRecovered,  ///< engine + state restored
    kFailed,     ///< durable files exist but none are recoverable
  };
  Outcome outcome = Outcome::kFresh;
  /// Typed reason of the newest failing artifact when anything failed
  /// (also set when an older generation rescued the recovery).
  Error error;
  /// Trail: which files loaded, which were skipped and why.
  std::string detail;
  /// The restored engine (null unless kRecovered). Its quantizer holds
  /// the pending partial quantum and clock at the recovered fence.
  std::unique_ptr<engine::ParallelDetector> engine;
  /// Frontend state at the recovered fence (cursor, seq, counters,
  /// admission; dictionary already installed into options.dictionary).
  detect::snapshot_io::IngestState state;
  /// Log records replayed on top of the segment.
  std::uint64_t replayed_quanta = 0;
  /// Artifacts restored: the segment, and the log whose records were
  /// replayed (empty when no record was).
  std::string segment_path;
  std::string wal_path;
};

// ---------------------------------------------------------------------------
// The typed one-shot snapshot surface.

/// Writes a full native snapshot of `engine` (with its own quantizer's
/// clock and pending partial quantum) to `out`. `checkpoint_id` (optional
/// out) receives the snapshot's id, which every log record of a WAL
/// generation chains to. `ingest` (optional) appends the IngestState
/// trailing section (dictionary, admission seeds, source cursor) — the
/// WAL's segments carry it.
Error SaveSnapshot(const engine::ParallelDetector& engine, std::ostream& out,
                   std::uint64_t* checkpoint_id = nullptr,
                   const detect::snapshot_io::IngestState* ingest = nullptr);

/// Restores an engine from a full snapshot. `threads` must be 1: it
/// remains only because the repository benchmark (perfbench/src/replay.cc)
/// passes it; drop it together with that argument. The stored
/// configuration is used; `dictionary`
/// follows the ParallelDetector constructor contract. Returns nullptr on
/// malformed input; `error` (optional out) receives the typed reason, or
/// success. `ingest` / `ingest_present` (optional outs) receive the
/// IngestState trailing section when the snapshot carries one; a snapshot
/// without it (version 2, or a bare save) restores the bare engine.
std::unique_ptr<engine::ParallelDetector> LoadEngineSnapshot(
    std::istream& in, const text::KeywordDictionary* dictionary,
    std::size_t threads, std::uint64_t* checkpoint_id = nullptr,
    Error* error = nullptr,
    detect::snapshot_io::IngestState* ingest = nullptr,
    bool* ingest_present = nullptr);

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_BACKEND_H_
