// The durability tier's single entry point.
//
// A durability::Backend owns everything between "a quantum just closed"
// and "state survives a crash": what gets written, when it is fsynced,
// which files exist, how recovery rebuilds an engine. Two implementations:
//
//   * SnapshotBackend — the cadence full/delta checkpoint scheme the
//     checkpoint-aware ingest path has always used (full-NNNNNN.ckpt /
//     delta-NNNNNN.ckpt, tmp + rename, one fallback generation), now with
//     typed errors and fsync levels.
//   * WalBackend — the log-structured tier: every quantum appends one
//     CRC-framed record to a write-ahead log (durability/log_format.h),
//     full-snapshot segments are cut on the old full-checkpoint cadence,
//     and a manifest + CURRENT pair names the generation in force.
//     Commit stall is O(quantum), not O(state); recovery is newest valid
//     manifest + log tail replay with torn-tail tolerance.
//
// The driver (ingest::DurableIngest) calls Commit() once per cut quantum
// — under the engine's quiesce fence, on the driver thread — and the
// backend decides whether that boundary persists anything. Both backends
// restore to the same place: resume from a backend is bit-identical to a
// never-restarted run at any worker and engine thread count
// (tests/ingest_checkpoint_test.cc proves it for both).
//
// This header is also the one way to save or restore an engine directly:
// the Save*/Load*/Apply*/Replay* functions at the bottom are the only
// implementations of full save, full load, delta save, delta apply and
// the staged replay both backends use, all reporting durability::Error.
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
//     engine's, at any thread count on either side of the restore
//     (tests/checkpoint_property_test.cc).
//   * Corrupt input (truncation, bit flips, version skew, forged lengths)
//     makes the loaders fail with a typed Error; they never crash, abort
//     or over-allocate (tests/checkpoint_fuzz_test.cc).
//
// Keyword ids are dictionary-relative; restore with the same dictionary
// (or a superset that preserves ids).
//
// Delta snapshots: between full snapshots, a delta persists only the
// quanta processed since its base full snapshot (plus the pending partial
// quantum). Restore = load the base natively, then apply the latest delta,
// which re-processes that bounded span deterministically. Deltas chain to
// their base by the base's checkpoint id (its payload CRC); applying a
// delta to the wrong base is rejected.

#ifndef SCPRT_DURABILITY_BACKEND_H_
#define SCPRT_DURABILITY_BACKEND_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "detect/snapshot_io.h"
#include "durability/error.h"
#include "engine/parallel_detector.h"
#include "stream/quantizer.h"
#include "text/concurrent_dictionary.h"

namespace scprt::durability {

/// Which durability scheme a deployment runs.
enum class BackendKind : std::uint8_t {
  kSnapshot = 0,
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

/// Stable names for flags/JSON ("snapshot"/"wal", "none"/"interval"/
/// "commit") and the matching parsers (false on unknown spellings).
const char* BackendKindName(BackendKind kind);
bool ParseBackendKind(std::string_view text, BackendKind& kind);
const char* FsyncLevelName(FsyncLevel level);
bool ParseFsyncLevel(std::string_view text, FsyncLevel& level);

/// Placement and cadence, shared by both backends.
struct BackendOptions {
  /// Directory the durability files live in (created if missing).
  std::string directory;
  BackendKind kind = BackendKind::kSnapshot;
  FsyncLevel fsync = FsyncLevel::kNone;
  /// Checkpoint cadence in quanta: SnapshotBackend persists every
  /// `commit_quanta` quanta; WalBackend persists every quantum and uses
  /// this as the group-commit fsync interval. 0 disables the count
  /// trigger (snapshot backend only; at least one trigger must be live).
  std::size_t commit_quanta = 8;
  /// Time trigger in seconds, evaluated at quantum boundaries (0 off).
  double commit_seconds = 0.0;
  /// Full-snapshot interval: every Nth snapshot-backend checkpoint is
  /// full; the WAL backend cuts a segment every
  /// `commit_quanta * full_interval` quanta.
  std::size_t full_interval = 4;
};

/// Everything one quantum boundary hands the backend. The frontend fields
/// of `state` (cursor, seq, counters, admission) are filled by the caller;
/// the dictionary fields are left empty — the backend serializes the blob
/// or tail its own format needs.
struct CommitContext {
  /// The quantum that just closed (already applied to the engine).
  const stream::Quantum* quantum = nullptr;
  /// The outermost accumulation point (the assembler's quantizer): clock
  /// and pending partial quantum at this fence.
  const stream::Quantizer* quantizer = nullptr;
  /// The live vocabulary.
  const text::ConcurrentKeywordDictionary* dictionary = nullptr;
  /// Frontend state at this fence (dictionary fields ignored).
  detect::snapshot_io::IngestState state;
};

/// What one Commit() did.
struct CommitResult {
  /// Failure of this boundary's persistence attempt (kNone when nothing
  /// was due or everything landed). The stream keeps flowing either way;
  /// the recovery point just ages until the next attempt succeeds.
  Error error;
  /// State at this fence became durable (a WAL record or checkpoint file
  /// landed). False when the boundary was not a persistence point.
  bool persisted = false;
  /// This boundary produced a checkpoint-grade artifact (a snapshot file,
  /// or a WAL segment + manifest cut).
  bool checkpoint = false;
  /// Bytes written and wall time stalled by this boundary.
  std::uint64_t bytes = 0;
  std::uint64_t stall_ns = 0;
};

struct RecoverOptions {
  /// Engine worker threads for the restored detector (0 = hardware).
  std::size_t engine_threads = 0;
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
  /// The restored engine (null unless kRecovered). Its outer quantizer
  /// holds the pending partial quantum and clock at the recovered fence.
  std::unique_ptr<engine::ParallelDetector> engine;
  /// Frontend state at the recovered fence (cursor, seq, counters,
  /// admission; dictionary already installed into options.dictionary).
  detect::snapshot_io::IngestState state;
  /// Quanta replayed on top of the base snapshot (delta or WAL tail).
  std::uint64_t replayed_quanta = 0;
  /// Artifacts restored: the base full snapshot / segment, and the delta
  /// file / WAL whose tail was replayed (empty when unused).
  std::string base_path;
  std::string tail_path;
};

/// One durability scheme. Not thread-safe — the ingest driver thread owns
/// it, exactly as it owns the engine.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const = 0;

  /// Recovers the newest durable generation. Call at most once, before
  /// the first Commit. An empty directory is kFresh, not an error.
  virtual RecoverResult Recover(const RecoverOptions& options) = 0;

  /// One quantum boundary: persist per the backend's policy. `engine` is
  /// quiesced by its own save path; `ctx.state`'s frontend fields
  /// describe this fence.
  virtual CommitResult Commit(engine::ParallelDetector& engine,
                              const CommitContext& ctx) = 0;

  /// fsync/fdatasync failures observed so far (commits may still have
  /// landed; their power-loss durability is what failed). The small-fix
  /// satellite: these used to be logged and dropped.
  virtual std::uint64_t sync_failures() const = 0;
};

/// Builds the backend `options.kind` names. The directory is created if
/// missing.
std::unique_ptr<Backend> MakeBackend(const BackendOptions& options);

// ---------------------------------------------------------------------------
// The typed one-shot snapshot surface.

/// Optional attachments to a snapshot, used by the backends.
/// `quantizer_override` substitutes another quantizer's clock and pending
/// partial quantum for the engine's own — in the ingest pipeline,
/// accumulation lives in the QuantumAssembler's quantizer, not the
/// engine's. `ingest` appends the IngestState trailing section
/// (dictionary, admission seeds, source cursor).
struct CheckpointExtras {
  const stream::Quantizer* quantizer_override = nullptr;
  const detect::snapshot_io::IngestState* ingest = nullptr;
};

/// Writes a full native snapshot of `engine` (quiescing it) to `out`.
/// `checkpoint_id` (optional out) receives the snapshot's id, which a
/// later delta chains to.
Error SaveSnapshot(engine::ParallelDetector& engine, std::ostream& out,
                   std::uint64_t* checkpoint_id = nullptr,
                   const CheckpointExtras& extras = {});

/// Restores an engine running on `threads` workers (0 derives hardware
/// concurrency) from a full snapshot; thread count is an engine property,
/// not a snapshot property. The stored configuration is used; `dictionary`
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

/// Writes a delta snapshot against the full snapshot identified by
/// `base_id`: `quanta` processed since it (oldest first), plus the
/// engine's clock and pending partial quantum (or the override's).
Error SaveDeltaSnapshot(engine::ParallelDetector& engine,
                        std::uint64_t base_id,
                        const std::vector<stream::Quantum>& quanta,
                        std::ostream& out,
                        const CheckpointExtras& extras = {});

/// Applies a delta snapshot to `engine`, which must have just been
/// restored from the delta's base (enforced via `expected_base_id`). The
/// whole delta is parsed and validated first (snapshot_io::
/// ReadAndValidateDelta): on failure the engine is unchanged and the
/// typed reason is returned — a broken chain surfaces as kBaseMismatch.
/// `ingest` / `ingest_present` mirror LoadEngineSnapshot's.
Error ApplyDeltaSnapshot(engine::ParallelDetector& engine, std::istream& in,
                         std::uint64_t expected_base_id,
                         detect::snapshot_io::IngestState* ingest = nullptr,
                         bool* ingest_present = nullptr);

/// Replays an already-validated delta onto `engine` (the staged resume
/// path: the backends install the delta's dictionary tail between
/// validation and replay). Re-processing is deterministic, so the engine
/// converges to the exact delta-save state; the engine's pending partial
/// quantum is superseded by the delta's.
void ReplayDelta(engine::ParallelDetector& engine,
                 const detect::snapshot_io::DeltaPayload& delta);

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_BACKEND_H_
