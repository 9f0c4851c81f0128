#include "durability/snapshot_backend.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/check.h"
#include "durability/posix_file.h"

namespace scprt::durability {

namespace fs = std::filesystem;
namespace sio = detect::snapshot_io;

namespace {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One checkpoint file found in the directory.
struct CheckpointFile {
  std::uint64_t ordinal = 0;
  bool full = false;
  fs::path path;
};

// Parses "full-NNNNNN.ckpt" / "delta-NNNNNN.ckpt"; false for other names
// (the scanner ignores foreign files rather than tripping on them). The
// match must cover the whole name: a leftover "….ckpt.tmp" from a write
// that crashed before its rename is an uncommitted artifact, not a
// checkpoint — treating it as one would defeat the tmp+rename protocol.
bool ParseCheckpointName(const std::string& name, CheckpointFile& out) {
  unsigned long long ordinal = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "full-%llu.ckpt%n", &ordinal, &consumed) ==
          1 &&
      consumed == static_cast<int>(name.size())) {
    out.ordinal = ordinal;
    out.full = true;
    return true;
  }
  consumed = 0;
  if (std::sscanf(name.c_str(), "delta-%llu.ckpt%n", &ordinal,
                  &consumed) == 1 &&
      consumed == static_cast<int>(name.size())) {
    out.ordinal = ordinal;
    out.full = false;
    return true;
  }
  return false;
}

std::string CheckpointFileName(std::uint64_t ordinal, bool full) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s-%06" PRIu64 ".ckpt",
                full ? "full" : "delta", ordinal);
  return buf;
}

std::vector<CheckpointFile> ScanDirectory(const std::string& directory) {
  std::vector<CheckpointFile> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    CheckpointFile file;
    if (!ParseCheckpointName(entry.path().filename().string(), file)) {
      continue;
    }
    file.path = entry.path();
    files.push_back(std::move(file));
  }
  std::sort(files.begin(), files.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.ordinal > b.ordinal;  // newest first
            });
  return files;
}

}  // namespace

SnapshotBackend::SnapshotBackend(const BackendOptions& options)
    : options_(options) {
  // At least one cadence trigger must be live: with both off, no
  // checkpoint is ever due while the delta log still records every
  // quantum — unbounded memory and zero durability.
  SCPRT_CHECK(options_.commit_quanta > 0 || options_.commit_seconds > 0.0);
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  // Continue the ordinal sequence above any files already in the
  // directory, resumed or not: a fresh session restarting at 0 would let
  // a later resume pick a stale higher-ordinal checkpoint from an
  // abandoned deployment over this one's.
  const std::vector<CheckpointFile> existing =
      ScanDirectory(options_.directory);
  if (!existing.empty()) ordinal_ = existing.front().ordinal + 1;
}

RecoverResult SnapshotBackend::Recover(const RecoverOptions& options) {
  SCPRT_CHECK(options.dictionary != nullptr);
  RecoverResult result;
  const std::vector<CheckpointFile> files = ScanDirectory(options_.directory);
  if (files.empty()) return result;  // fresh start

  text::ConcurrentKeywordDictionary& dictionary = *options.dictionary;
  for (const CheckpointFile& full : files) {
    if (!full.full) continue;
    Error error;
    sio::IngestState full_state;
    bool full_has_ingest = false;
    std::uint64_t base_id = 0;
    std::ifstream in(full.path, std::ios::binary);
    auto engine = LoadEngineSnapshot(in, &dictionary.view(),
                                     options.engine_threads, &base_id,
                                     &error, &full_state, &full_has_ingest);
    if (engine == nullptr || !full_has_ingest ||
        full_state.dictionary_base != 0) {
      if (engine != nullptr) error.code = ErrorCode::kCorrupt;
      if (result.error.ok()) result.error = error;
      result.detail += full.path.filename().string() + ": " +
                       sio::LoadErrorName(error.ToLoadError()) +
                       (engine != nullptr ? " (bad ingest section)" : "") +
                       "; ";
      continue;
    }
    // Install the full snapshot's dictionary before any replay touches
    // its keyword ids.
    BinaryReader full_dictionary(full_state.dictionary_state);
    if (!dictionary.RestoreState(full_dictionary)) {
      if (result.error.ok()) {
        result.error = MakeError(ErrorCode::kCorrupt,
                                 "dictionary blob malformed");
      }
      result.detail +=
          full.path.filename().string() + ": dictionary blob malformed; ";
      continue;  // dictionary is unchanged (still empty) — try older fulls
    }

    // The newest delta chaining to this base supersedes it: its
    // IngestState (dictionary tail, cursor, counters) describes the later
    // fence point.
    sio::IngestState state = full_state;
    sio::DeltaPayload delta;
    bool have_delta = false;
    for (const CheckpointFile& candidate : files) {
      if (candidate.full || candidate.ordinal <= full.ordinal) continue;
      sio::IngestState delta_state;
      bool delta_has_ingest = false;
      sio::LoadError delta_error = sio::LoadError::kNone;
      std::ifstream delta_in(candidate.path, std::ios::binary);
      const bool valid = sio::ReadAndValidateDelta(
          delta_in, base_id, engine->next_quantum_index(),
          engine->core().config().quantum_size, delta, &delta_error,
          &delta_state, &delta_has_ingest);
      if (valid && delta_has_ingest) {
        // Deltas carry only the dictionary tail interned since the base;
        // append it. A mismatched base size degrades to full-only resume.
        BinaryReader tail(delta_state.dictionary_state);
        if (!dictionary.RestoreState(
                tail,
                static_cast<KeywordId>(delta_state.dictionary_base))) {
          if (result.error.ok()) {
            result.error = MakeError(ErrorCode::kCorrupt,
                                     "dictionary tail malformed");
          }
          result.detail += candidate.path.filename().string() +
                           ": dictionary tail malformed; ";
          break;
        }
        state = std::move(delta_state);
        have_delta = true;
        result.tail_path = candidate.path.string();
        break;
      }
      if (valid) {
        // A well-formed delta from the non-durable engine path: nothing
        // corrupt, just not resumable for ingest.
        result.detail +=
            candidate.path.filename().string() + ": no ingest section; ";
        continue;
      }
      if (result.error.ok()) result.error = Error::FromLoad(delta_error);
      result.detail += candidate.path.filename().string() + ": " +
                       sio::LoadErrorName(delta_error) + "; ";
    }

    if (have_delta) {
      result.replayed_quanta = delta.quanta.size();
      ReplayDelta(*engine, delta);
    }

    result.outcome = RecoverResult::Outcome::kRecovered;
    result.engine = std::move(engine);
    result.state = std::move(state);
    result.base_path = full.path.string();
    return result;
  }

  // Checkpoint files exist but nothing was recoverable.
  result.outcome = RecoverResult::Outcome::kFailed;
  if (result.error.ok()) {
    result.error = MakeError(ErrorCode::kCorrupt, "no recoverable full");
  }
  return result;
}

CommitResult SnapshotBackend::Commit(engine::ParallelDetector& engine,
                                     const CommitContext& ctx) {
  SCPRT_CHECK(ctx.quantum != nullptr && ctx.quantizer != nullptr &&
              ctx.dictionary != nullptr);
  CommitResult result;
  log_.push_back(*ctx.quantum);
  ++quanta_since_checkpoint_;
  if (last_checkpoint_ns_ == 0) last_checkpoint_ns_ = NowNanos();

  const bool count_due =
      options_.commit_quanta > 0 &&
      quanta_since_checkpoint_ >= options_.commit_quanta;
  const bool time_due =
      options_.commit_seconds > 0.0 &&
      static_cast<double>(NowNanos() - last_checkpoint_ns_) / 1e9 >=
          options_.commit_seconds;
  if (!count_due && !time_due) return result;  // not a persistence point

  const std::int64_t t0 = NowNanos();
  const bool full =
      !have_full_ || checkpoints_since_full_ >= options_.full_interval - 1;

  sio::IngestState state = ctx.state;
  // A full snapshot carries the whole dictionary; a delta only the tail
  // interned since its base full (ids are append-only, so the base's
  // prefix is immutable) — keeping deltas O(delta), not O(vocabulary).
  const std::size_t dictionary_size = ctx.dictionary->size();
  state.dictionary_base =
      full ? 0 : static_cast<std::uint64_t>(full_dictionary_size_);
  BinaryWriter dictionary_blob;
  ctx.dictionary->SaveState(dictionary_blob,
                            static_cast<KeywordId>(state.dictionary_base));
  state.dictionary_state = dictionary_blob.TakeData();

  CheckpointExtras extras;
  extras.quantizer_override = ctx.quantizer;
  extras.ingest = &state;

  std::ostringstream out(std::ios::binary);
  std::uint64_t checkpoint_id = 0;
  const Error encoded =
      full ? SaveSnapshot(engine, out, &checkpoint_id, extras)
           : SaveDeltaSnapshot(engine, base_id_, log_, out, extras);
  const fs::path path =
      fs::path(options_.directory) / CheckpointFileName(ordinal_, full);
  if (!encoded.ok() || !out) {
    result.error =
        MakeError(ErrorCode::kIo, "encode " + path.string() + " failed");
    return result;  // delta log kept; retried at the next due boundary
  }
  const std::string contents = std::move(out).str();
  // Full snapshots are the recovery anchors: they sync at kInterval and
  // above. Deltas only sync at kEveryCommit.
  const bool sync = options_.fsync == FsyncLevel::kEveryCommit ||
                    (options_.fsync == FsyncLevel::kInterval && full);
  Error write_error = WriteFileAtomic(path.string(), contents, sync);
  if (!write_error.ok()) {
    if (write_error.code == ErrorCode::kSyncFailed) ++sync_failures_;
    result.error = std::move(write_error);
    return result;
  }

  if (full) {
    base_id_ = checkpoint_id;
    log_.clear();
    have_full_ = true;
    checkpoints_since_full_ = 0;
    full_dictionary_size_ = dictionary_size;
    // Keep one whole fallback generation: the previous full and every
    // delta after it survive until the *next* full supersedes them.
    CollectGarbage(prev_full_ordinal_);
    prev_full_ordinal_ = ordinal_;
  } else {
    ++checkpoints_since_full_;
  }
  ++ordinal_;
  quanta_since_checkpoint_ = 0;
  last_checkpoint_ns_ = NowNanos();

  result.persisted = true;
  result.checkpoint = true;
  result.bytes = contents.size();
  result.stall_ns = static_cast<std::uint64_t>(NowNanos() - t0);
  return result;
}

void SnapshotBackend::CollectGarbage(std::uint64_t keep_from_ordinal) {
  std::error_code ec;
  for (const CheckpointFile& file : ScanDirectory(options_.directory)) {
    if (file.ordinal < keep_from_ordinal) fs::remove(file.path, ec);
  }
}

}  // namespace scprt::durability
