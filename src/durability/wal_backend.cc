#include "durability/wal_backend.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/check.h"
#include "durability/log_reader.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scprt::durability {

namespace fs = std::filesystem;
namespace sio = detect::snapshot_io;

namespace {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// fsync/fdatasync wrapped in its own histogram + span: the fsync stall is
// the number the group-commit levels exist to amortize, so it gets its
// own distribution separate from the whole-append stall.
bool TimedSync(AppendFile& file) {
  static obs::Histogram* const fsync_hist =
      obs::Registry::Default().GetHistogram("wal.fsync_ns");
  obs::ScopedSpan span("wal.fsync");
  obs::ScopedHistogramTimer timer(fsync_hist);
  return file.Sync();
}

// The one definition of log-record acceptance. A record must chain to the
// generation's segment, commit exactly the next quantum, carry a pending
// partial quantum that fits, and continue the dictionary watermark. Returns
// why `delta` / `state` are refused, or "" when the record is accepted.
std::string RecordRejection(const sio::DeltaPayload& delta,
                            const sio::IngestState& state,
                            std::uint64_t base_id, QuantumIndex next_index,
                            std::size_t quantum_size,
                            std::size_t dictionary_size) {
  if (delta.base_id != base_id) return "chained to another segment";
  if (delta.quanta.size() != 1) {
    return std::to_string(delta.quanta.size()) + " quanta, want 1";
  }
  if (delta.quanta.front().index != next_index ||
      delta.next_index != next_index + 1) {
    return "quantum " + std::to_string(delta.quanta.front().index) +
           ", want " + std::to_string(next_index);
  }
  if (delta.pending.size() >= quantum_size) {
    return "pending partial of " + std::to_string(delta.pending.size()) +
           " messages >= quantum size " + std::to_string(quantum_size);
  }
  if (state.dictionary_base != static_cast<std::uint64_t>(dictionary_size)) {
    return "dictionary tail starts at " +
           std::to_string(state.dictionary_base) + ", want " +
           std::to_string(dictionary_size);
  }
  return "";
}

}  // namespace

WalBackend::WalBackend(const BackendOptions& options) : options_(options) {
  SCPRT_CHECK(!options_.directory.empty());
  // With both triggers off the log would never be synced on a schedule
  // nor cut into generations — it would grow without bound.
  SCPRT_CHECK(options_.commit_quanta > 0 || options_.commit_seconds > 0.0);
  SCPRT_CHECK(options_.full_interval >= 1);
  // A generation spans `full_interval` fsync intervals.
  segment_interval_quanta_ =
      options_.commit_quanta > 0
          ? options_.commit_quanta * options_.full_interval
          : 0;  // time-driven only
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  // Allocate file numbers above anything already on disk, committed or
  // orphaned — reusing a number would let a stale file shadow a new one.
  const DirectoryListing listing = ListDurabilityFiles(options_.directory);
  for (const auto& [number, name] : listing.segments) {
    next_file_number_ = std::max(next_file_number_, number + 1);
  }
  for (const auto& [number, name] : listing.wals) {
    next_file_number_ = std::max(next_file_number_, number + 1);
  }
  for (const auto& [number, name] : listing.manifests) {
    next_file_number_ = std::max(next_file_number_, number + 1);
  }
}

std::string WalBackend::PathOf(const std::string& name) const {
  return (fs::path(options_.directory) / name).string();
}

RecoverResult WalBackend::Recover(const RecoverOptions& options) {
  SCPRT_CHECK(options.dictionary != nullptr);
  RecoverResult result;
  const DirectoryListing listing = ListDurabilityFiles(options_.directory);
  if (listing.manifests.empty() && !listing.legacy_checkpoints.empty()) {
    // Written by the retired snapshot backend: not recoverable here, and
    // not empty either — a silent fresh start would discard it.
    std::string names;
    for (const auto& [number, name] : listing.legacy_checkpoints) {
      names += (names.empty() ? "" : ", ") + name;
    }
    result.outcome = RecoverResult::Outcome::kFailed;
    result.error = MakeError(
        ErrorCode::kVersionSkew,
        "snapshot-backend checkpoints (" + names +
            ") predate the WAL; only seg-/wal-/MANIFEST- files resume");
    result.detail =
        std::to_string(listing.legacy_checkpoints.size()) +
        " retired snapshot-backend checkpoint files and no manifest; ";
    return result;
  }
  const bool anything = !listing.segments.empty() || !listing.wals.empty() ||
                        !listing.manifests.empty();
  if (!anything) return result;  // fresh start

  // Candidate manifests, preferred first: the one CURRENT names, then the
  // stale-CURRENT fallback chain (newest decodable first). A damaged
  // segment fails over to the next candidate — recovery only gives up
  // when no generation restores.
  std::vector<Manifest> candidates;
  {
    Error current_error;
    std::string current_detail;
    if (auto manifest = LoadCurrentManifest(options_.directory,
                                            &current_error, &current_detail)) {
      candidates.push_back(*manifest);
    }
    result.detail += current_detail;
    if (candidates.empty()) {
      result.outcome = RecoverResult::Outcome::kFailed;
      result.error = current_error.ok()
                         ? MakeError(ErrorCode::kNoManifest,
                                     "durability files but no manifest")
                         : std::move(current_error);
      return result;
    }
  }
  for (auto it = listing.manifests.rbegin(); it != listing.manifests.rend();
       ++it) {
    if (it->first == candidates.front().manifest_number) continue;
    std::string bytes;
    Manifest manifest;
    manifest.manifest_number = it->first;
    if (ReadFileToString(PathOf(it->second), bytes) &&
        DecodeManifest(bytes, manifest)) {
      candidates.push_back(manifest);
    }
  }

  text::ConcurrentKeywordDictionary& dictionary = *options.dictionary;
  for (const Manifest& manifest : candidates) {
    const std::string segment_name = SegmentFileName(manifest.segment_number);
    Error load_error;
    sio::IngestState segment_state;
    bool has_ingest = false;
    std::uint64_t base_id = 0;
    std::ifstream in(PathOf(segment_name), std::ios::binary);
    auto engine = LoadEngineSnapshot(in, &dictionary.view(),
                                     /*threads=*/1, &base_id,
                                     &load_error, &segment_state,
                                     &has_ingest);
    if (engine == nullptr || !has_ingest ||
        segment_state.dictionary_base != 0 ||
        base_id != manifest.base_checkpoint_id) {
      if (engine != nullptr) {
        load_error.code = base_id != manifest.base_checkpoint_id
                              ? ErrorCode::kBaseMismatch
                              : ErrorCode::kCorrupt;
      }
      if (result.error.ok()) result.error = load_error;
      result.detail +=
          segment_name + ": " + ErrorCodeName(load_error.code) + "; ";
      continue;
    }
    BinaryReader segment_dictionary(segment_state.dictionary_state);
    if (!dictionary.RestoreState(segment_dictionary)) {
      if (result.error.ok()) {
        result.error =
            MakeError(ErrorCode::kCorrupt, "dictionary blob malformed");
      }
      result.detail += segment_name + ": dictionary blob malformed; ";
      continue;  // dictionary unchanged (still empty) — try older manifests
    }

    // This generation is committed from here on. Replay the log's newest
    // consistent prefix on top of the segment.
    const std::size_t quantum_size = engine->core().config().quantum_size;
    sio::IngestState state = segment_state;
    std::vector<stream::Quantum> quanta;
    std::vector<stream::Message> pending;
    QuantumIndex next_index = engine->next_quantum_index();
    const std::string wal_name = WalFileName(manifest.wal_number);
    std::string wal_contents;
    if (!ReadFileToString(PathOf(wal_name), wal_contents)) {
      // A crash between CURRENT publish and log creation leaves a
      // generation with no log yet: segment-only recovery.
      result.detail += wal_name + ": missing (segment-only recovery); ";
    } else {
      LogReader reader(std::move(wal_contents));
      std::string stop_reason;
      std::string record;
      while (reader.ReadRecord(record)) {
        BinaryReader payload(record);
        if (payload.U8() != kWalRecordDelta) {
          stop_reason = "unknown record kind";
          break;
        }
        sio::DeltaPayload delta;
        sio::IngestState record_state;
        if (!sio::ReadDelta(payload, delta) ||
            !sio::ReadIngestSection(payload, record_state) ||
            !payload.ok() || payload.remaining() != 0) {
          stop_reason = "record " + std::to_string(reader.records_read()) +
                        " malformed";
          break;
        }
        const std::string rejection = RecordRejection(
            delta, record_state, manifest.base_checkpoint_id, next_index,
            quantum_size, dictionary.size());
        if (!rejection.empty()) {
          stop_reason = "record " + std::to_string(reader.records_read()) +
                        " rejected: " + rejection;
          break;
        }
        BinaryReader tail(record_state.dictionary_state);
        if (!dictionary.RestoreState(
                tail,
                static_cast<KeywordId>(record_state.dictionary_base))) {
          stop_reason = "dictionary tail malformed";
          break;
        }
        quanta.push_back(std::move(delta.quanta.front()));
        pending = std::move(delta.pending);
        next_index = delta.next_index;
        state = std::move(record_state);
      }
      if (stop_reason.empty()) stop_reason = reader.why_stopped();
      if (!stop_reason.empty()) {
        // Damage *inside* the log (as opposed to a torn final append,
        // which reads as a clean end): the replay stops at the newest
        // consistent prefix, and the damage is a typed, surfaced fact.
        result.detail += wal_name + ": " + stop_reason +
                         " (recovered prefix of " +
                         std::to_string(quanta.size()) + " records); ";
        if (result.error.ok()) {
          result.error =
              MakeError(ErrorCode::kCorrupt, wal_name + ": " + stop_reason);
        }
      }
    }

    if (!quanta.empty()) {
      sio::DeltaPayload combined;
      combined.base_id = manifest.base_checkpoint_id;
      combined.quanta = std::move(quanta);
      combined.pending = std::move(pending);
      combined.next_index = next_index;
      result.replayed_quanta = combined.quanta.size();
      ReplayDelta(*engine, combined);
      result.wal_path = PathOf(wal_name);
    }

    result.outcome = RecoverResult::Outcome::kRecovered;
    result.engine = std::move(engine);
    result.state = std::move(state);
    result.segment_path = PathOf(segment_name);

    // Never append to a recovered log — its tail may be torn. The first
    // post-recovery Commit cuts a fresh generation; until then GC must
    // keep the recovered one as the fallback.
    next_file_number_ =
        std::max(next_file_number_, manifest.next_file_number);
    prev_segment_number_ = manifest.segment_number;
    have_prev_generation_ = true;
    have_generation_ = false;
    return result;
  }

  result.outcome = RecoverResult::Outcome::kFailed;
  if (result.error.ok()) {
    result.error = MakeError(ErrorCode::kCorrupt, "no recoverable segment");
  }
  return result;
}

CommitResult WalBackend::Commit(const engine::ParallelDetector& engine,
                                const CommitContext& ctx) {
  SCPRT_CHECK(ctx.quantum != nullptr && ctx.quantizer != nullptr &&
              ctx.dictionary != nullptr);
  const bool count_due =
      segment_interval_quanta_ > 0 &&
      quanta_since_segment_ + 1 >= segment_interval_quanta_;
  const bool time_due =
      options_.commit_seconds > 0.0 && last_segment_ns_ != 0 &&
      static_cast<double>(NowNanos() - last_segment_ns_) / 1e9 >=
          options_.commit_seconds *
              static_cast<double>(options_.full_interval);
  if (!have_generation_ || count_due || time_due) {
    return CutGeneration(engine, ctx);
  }
  return AppendRecord(ctx);
}

CommitResult WalBackend::CutGeneration(const engine::ParallelDetector& engine,
                                       const CommitContext& ctx) {
  CommitResult result;
  obs::ScopedSpan span("wal.segment");
  const std::int64_t t0 = NowNanos();
  const std::uint64_t segment_number = next_file_number_++;
  const std::uint64_t wal_number = next_file_number_++;
  const std::uint64_t manifest_number = next_file_number_++;

  // The segment is a standard full snapshot cut at this fence — it
  // subsumes the quantum that just closed, so no log record is written
  // for it.
  sio::IngestState state = ctx.state;
  state.dictionary_base = 0;
  BinaryWriter dictionary_blob;
  ctx.dictionary->SaveState(dictionary_blob);
  state.dictionary_state = dictionary_blob.TakeData();
  CheckpointExtras extras;
  extras.quantizer_override = ctx.quantizer;
  extras.ingest = &state;

  std::ostringstream out(std::ios::binary);
  std::uint64_t checkpoint_id = 0;
  if (!SaveSnapshot(engine, out, &checkpoint_id, extras).ok() || !out) {
    result.error = MakeError(ErrorCode::kIo, "encode segment failed");
    return result;  // old generation stays live; retried next boundary
  }
  const std::string contents = std::move(out).str();
  const bool sync = options_.fsync != FsyncLevel::kNone;
  const std::string segment_name = SegmentFileName(segment_number);
  Error error = WriteFileAtomic(PathOf(segment_name), contents, sync);
  if (!error.ok()) {
    if (error.code == ErrorCode::kSyncFailed) ++sync_failures_;
    result.error = std::move(error);
    return result;
  }

  Manifest manifest;
  manifest.manifest_number = manifest_number;
  manifest.segment_number = segment_number;
  manifest.wal_number = wal_number;
  manifest.base_checkpoint_id = checkpoint_id;
  manifest.next_file_number = next_file_number_;
  manifest.next_quantum = ctx.quantizer->next_index();
  error = PublishManifest(options_.directory, manifest, sync);
  if (!error.ok()) {
    // The new segment is an orphan (GC will sweep it); the previous
    // generation is still the one CURRENT names.
    if (error.code == ErrorCode::kSyncFailed) ++sync_failures_;
    result.error = std::move(error);
    return result;
  }

  // The generation is committed: open its log. A crash before the log
  // exists recovers segment-only.
  Error open_error;
  auto wal_file = AppendFile::Open(PathOf(WalFileName(wal_number)),
                                   &open_error);
  if (wal_file == nullptr) {
    result.error = std::move(open_error);
    return result;
  }
  wal_file_ = std::move(wal_file);
  writer_ = std::make_unique<LogWriter>(wal_file_.get());

  if (have_generation_) {
    prev_segment_number_ = segment_number_;
    have_prev_generation_ = true;
  }
  segment_number_ = segment_number;
  wal_number_ = wal_number;
  base_checkpoint_id_ = checkpoint_id;
  have_generation_ = true;
  last_dictionary_size_ = ctx.dictionary->size();
  quanta_since_segment_ = 0;
  appends_since_sync_ = 0;
  last_sync_ns_ = NowNanos();
  last_segment_ns_ = last_sync_ns_;
  // GC after the bookkeeping, so the retained pair is exactly the new
  // generation plus its immediate predecessor as the fallback.
  CollectGarbage();

  result.persisted = true;
  result.checkpoint = true;
  result.bytes = contents.size();
  result.stall_ns = static_cast<std::uint64_t>(NowNanos() - t0);
  // The stall is already clocked for CommitResult; mirroring it into the
  // registry histogram costs no extra clock reads.
  static obs::Histogram* const segment_hist =
      obs::Registry::Default().GetHistogram("wal.segment_cut_ns");
  segment_hist->Record(result.stall_ns);
  return result;
}

CommitResult WalBackend::AppendRecord(const CommitContext& ctx) {
  CommitResult result;
  obs::ScopedSpan span("wal.append");
  const std::int64_t t0 = NowNanos();

  sio::IngestState state = ctx.state;
  // Each record carries only the vocabulary tail interned since the
  // previous record: the watermark chain keeps every commit O(quantum).
  state.dictionary_base =
      static_cast<std::uint64_t>(last_dictionary_size_);
  BinaryWriter dictionary_blob;
  ctx.dictionary->SaveState(dictionary_blob,
                            static_cast<KeywordId>(state.dictionary_base));
  state.dictionary_state = dictionary_blob.TakeData();

  BinaryWriter record;
  record.U8(kWalRecordDelta);
  const std::vector<stream::Quantum> one(1, *ctx.quantum);
  sio::WriteDelta(record, base_checkpoint_id_, ctx.quantizer->next_index(),
                  one, ctx.quantizer->pending());
  sio::WriteIngestSection(record, state);

  const std::uint64_t before = wal_file_->size();
  if (!writer_->AddRecord(record.data()) || !wal_file_->Flush()) {
    result.error = MakeError(
        ErrorCode::kIo, "append to " + wal_file_->path() + " failed");
    // The log tail is undefined; force a fresh generation at the next
    // boundary rather than appending after a torn record.
    have_generation_ = false;
    return result;
  }

  bool sync_failed = false;
  if (options_.fsync == FsyncLevel::kEveryCommit) {
    sync_failed = !TimedSync(*wal_file_);
  } else if (options_.fsync == FsyncLevel::kInterval) {
    ++appends_since_sync_;
    const bool sync_count_due = options_.commit_quanta > 0 &&
                                appends_since_sync_ >= options_.commit_quanta;
    const bool sync_time_due =
        options_.commit_seconds > 0.0 &&
        static_cast<double>(NowNanos() - last_sync_ns_) / 1e9 >=
            options_.commit_seconds;
    if (sync_count_due || sync_time_due) {
      sync_failed = !TimedSync(*wal_file_);
      if (!sync_failed) {
        appends_since_sync_ = 0;
        last_sync_ns_ = NowNanos();
      }
    }
  }
  if (sync_failed) {
    ++sync_failures_;
    obs::Registry::Default().GetCounter("wal.sync_failures")->Increment();
    // The record reached the kernel (process-crash durable); only its
    // power-loss durability failed — surfaced, not dropped.
    result.error = MakeError(ErrorCode::kSyncFailed,
                             "fdatasync " + wal_file_->path() + " failed");
  }

  last_dictionary_size_ = ctx.dictionary->size();
  ++quanta_since_segment_;
  result.persisted = true;
  result.bytes = wal_file_->size() - before;
  result.stall_ns = static_cast<std::uint64_t>(NowNanos() - t0);
  static obs::Histogram* const append_hist =
      obs::Registry::Default().GetHistogram("wal.append_ns");
  append_hist->Record(result.stall_ns);
  return result;
}

void WalBackend::CollectGarbage() {
  // Keep the live generation and one whole fallback generation; every
  // numbered file older than the fallback's segment is superseded.
  if (!have_prev_generation_ && !have_generation_) return;
  const std::uint64_t keep_from =
      have_prev_generation_ ? prev_segment_number_ : segment_number_;
  std::error_code ec;
  const DirectoryListing listing = ListDurabilityFiles(options_.directory);
  const auto sweep =
      [&](const std::vector<std::pair<std::uint64_t, std::string>>& files) {
        for (const auto& [number, name] : files) {
          if (number < keep_from) fs::remove(PathOf(name), ec);
        }
      };
  sweep(listing.segments);
  sweep(listing.wals);
  sweep(listing.manifests);
}

}  // namespace scprt::durability
