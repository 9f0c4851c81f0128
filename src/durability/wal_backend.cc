#include "durability/wal_backend.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/check.h"
#include "durability/file_names.h"
#include "durability/wal_record.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scprt::durability {

namespace fs = std::filesystem;
namespace sio = detect::snapshot_io;

namespace {

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
// why `record` is refused, or "" when it is accepted.
std::string RecordRejection(const WalRecord& record, std::uint64_t base_id,
                            QuantumIndex next_index,
                            std::size_t quantum_size,
                            std::size_t dictionary_size) {
  if (record.base_id != base_id) return "chained to another segment";
  if (record.quantum.index != next_index) {
    return "quantum " + std::to_string(record.quantum.index) + ", want " +
           std::to_string(next_index);
  }
  if (record.pending.size() >= quantum_size) {
    return "pending partial of " + std::to_string(record.pending.size()) +
           " messages >= quantum size " + std::to_string(quantum_size);
  }
  if (record.state.dictionary_base !=
      static_cast<std::uint64_t>(dictionary_size)) {
    return "dictionary tail starts at " +
           std::to_string(record.state.dictionary_base) + ", want " +
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
}

std::string WalBackend::PathOf(const std::string& name) const {
  return (fs::path(options_.directory) / name).string();
}

RecoverResult WalBackend::Recover(const RecoverOptions& options) {
  SCPRT_CHECK(options.dictionary != nullptr);
  RecoverResult result;
  const DirectoryListing listing = ListDurabilityFiles(options_.directory);
  if (listing.segments.empty() && !listing.legacy_checkpoints.empty()) {
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
            ") predate the WAL; only seg-/wal- files resume");
    result.detail =
        std::to_string(listing.legacy_checkpoints.size()) +
        " retired snapshot-backend checkpoint files and no segment; ";
    return result;
  }
  if (listing.segments.empty() && listing.wals.empty()) {
    return result;  // fresh start
  }

  // Newest segment first: a segment that does not load fails over to the
  // previous generation — recovery only gives up when none restores.
  text::ConcurrentKeywordDictionary& dictionary = *options.dictionary;
  for (auto it = listing.segments.rbegin(); it != listing.segments.rend();
       ++it) {
    const auto& [segment_number, segment_name] = *it;
    Error load_error;
    sio::IngestState state;
    bool has_ingest = false;
    std::uint64_t base_id = 0;
    std::ifstream in(PathOf(segment_name), std::ios::binary);
    auto engine = LoadEngineSnapshot(in, &dictionary.view(),
                                     /*threads=*/1, &base_id, &load_error,
                                     &state, &has_ingest);
    if (engine != nullptr && (!has_ingest || state.dictionary_base != 0)) {
      engine.reset();
      load_error.code = ErrorCode::kCorrupt;
    }
    if (engine == nullptr) {
      if (result.error.ok()) result.error = load_error;
      result.detail +=
          segment_name + ": " + ErrorCodeName(load_error.code) + "; ";
      continue;
    }
    BinaryReader segment_dictionary(state.dictionary_state);
    if (!dictionary.RestoreState(segment_dictionary)) {
      if (result.error.ok()) {
        result.error =
            MakeError(ErrorCode::kCorrupt, "dictionary blob malformed");
      }
      result.detail += segment_name + ": dictionary blob malformed; ";
      continue;  // dictionary unchanged (still empty) — try older segments
    }

    // The segment restored: this generation is the one recovered. Replay
    // its log's newest consistent prefix on top, one record at a time.
    const std::size_t quantum_size = engine->core().config().quantum_size;
    QuantumIndex next_index = engine->next_quantum_index();
    std::vector<stream::Message> pending;
    const std::string wal_name = WalFileName(segment_number + 1);
    std::string wal_contents;
    if (!ReadFileToString(PathOf(wal_name), wal_contents)) {
      // A crash between the segment rename and the log's creation leaves
      // a generation with no log yet: segment-only recovery.
      result.detail += wal_name + ": missing (segment-only recovery); ";
    } else {
      LogReader reader(std::move(wal_contents));
      std::string stop_reason;
      std::string_view payload;
      while (reader.ReadRecord(payload)) {
        WalRecord record;
        if (!DecodeWalRecord(payload, record)) {
          stop_reason = "record " + std::to_string(reader.records_read()) +
                        " malformed";
          break;
        }
        const std::string rejection =
            RecordRejection(record, base_id, next_index, quantum_size,
                            dictionary.size());
        if (!rejection.empty()) {
          stop_reason = "record " + std::to_string(reader.records_read()) +
                        " rejected: " + rejection;
          break;
        }
        BinaryReader tail(record.state.dictionary_state);
        if (!dictionary.RestoreState(
                tail, static_cast<KeywordId>(record.state.dictionary_base))) {
          stop_reason = "dictionary tail malformed";
          break;
        }
        // The first record's quantum supersedes the segment's pending
        // partial quantum: those messages are its head.
        if (result.replayed_quanta == 0) engine->TakePendingMessages();
        engine->ProcessQuantum(record.quantum);
        pending = std::move(record.pending);
        next_index = record.quantum.index + 1;
        state = std::move(record.state);
        ++result.replayed_quanta;
      }
      if (stop_reason.empty()) stop_reason = reader.why_stopped();
      if (!stop_reason.empty()) {
        // Damage *inside* the log (as opposed to a torn final append,
        // which reads as a clean end): the replay stops at the newest
        // consistent prefix, and the damage is a typed, surfaced fact.
        result.detail += wal_name + ": " + stop_reason +
                         " (recovered prefix of " +
                         std::to_string(result.replayed_quanta) +
                         " records); ";
        if (result.error.ok()) {
          result.error =
              MakeError(ErrorCode::kCorrupt, wal_name + ": " + stop_reason);
        }
      }
    }
    if (result.replayed_quanta > 0) {
      // Fewer messages than a quantum (RecordRejection): no quantum cuts.
      for (const stream::Message& m : pending) engine->Push(m);
      result.wal_path = PathOf(wal_name);
    }

    result.outcome = RecoverResult::Outcome::kRecovered;
    result.engine = std::move(engine);
    result.state = std::move(state);
    result.segment_path = PathOf(segment_name);

    // Never append to a recovered log — its tail may be torn. The first
    // post-recovery Commit cuts a fresh generation; until then GC must
    // keep the recovered one as the fallback.
    segment_number_ = segment_number;
    have_segment_ = true;
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
  SCPRT_CHECK(ctx.quantum != nullptr && ctx.dictionary != nullptr);
  const bool count_due =
      segment_interval_quanta_ > 0 &&
      quanta_since_segment_ + 1 >= segment_interval_quanta_;
  const bool time_due =
      options_.commit_seconds > 0.0 && last_segment_ns_ != 0 &&
      static_cast<double>(obs::MonotonicNanos() - last_segment_ns_) / 1e9 >=
          options_.commit_seconds *
              static_cast<double>(options_.full_interval);
  if (wal_file_ == nullptr || count_due || time_due) {
    return CutGeneration(engine, ctx);
  }
  return AppendRecord(engine, ctx);
}

CommitResult WalBackend::CutGeneration(const engine::ParallelDetector& engine,
                                       const CommitContext& ctx) {
  CommitResult result;
  obs::ScopedSpan span("wal.segment");
  const std::int64_t t0 = obs::MonotonicNanos();
  const std::uint64_t segment_number = next_file_number_++;
  const std::uint64_t wal_number = next_file_number_++;

  // The segment is a standard full snapshot cut at this fence — it
  // subsumes the quantum that just closed, so no log record is written
  // for it.
  sio::IngestState state = ctx.state;
  state.dictionary_base = 0;
  BinaryWriter dictionary_blob;
  ctx.dictionary->SaveState(dictionary_blob);
  state.dictionary_state = dictionary_blob.TakeData();

  std::ostringstream out(std::ios::binary);
  std::uint64_t checkpoint_id = 0;
  if (!SaveSnapshot(engine, out, &checkpoint_id, &state).ok() || !out) {
    result.error = MakeError(ErrorCode::kIo, "encode segment failed");
    return result;  // old generation stays live; retried next boundary
  }
  const std::string contents = std::move(out).str();
  const std::string segment_path = PathOf(SegmentFileName(segment_number));
  Error error = WriteFileAtomic(segment_path, contents,
                                options_.fsync != FsyncLevel::kNone);
  if (error.code == ErrorCode::kSyncFailed) NoteSyncFailure();
  std::error_code ec;
  if (!error.ok() && !fs::exists(segment_path, ec)) {
    // The rename never landed (the number is fresh, so the name exists
    // only if it did): the previous generation stays live.
    result.error = std::move(error);
    return result;
  }

  // The rename landed — the commit point. The new segment is the live
  // generation even if only its directory fsync failed (`error` is then
  // kSyncFailed), so the previous log is closed for good.
  wal_file_.reset();
  if (have_segment_) {
    prev_segment_number_ = segment_number_;
    have_prev_segment_ = true;
  }
  segment_number_ = segment_number;
  have_segment_ = true;
  base_checkpoint_id_ = checkpoint_id;
  last_dictionary_size_ = ctx.dictionary->size();
  quanta_since_segment_ = 0;
  appends_since_sync_ = 0;
  last_sync_ns_ = obs::MonotonicNanos();
  last_segment_ns_ = last_sync_ns_;
  result.persisted = true;
  result.checkpoint = true;
  result.bytes = contents.size();
  result.error = std::move(error);

  // Then its log. A crash before the log exists recovers segment-only; a
  // log that cannot be opened leaves wal_file_ null, so the next commit
  // cuts again.
  Error open_error;
  wal_file_ = AppendFile::Open(PathOf(WalFileName(wal_number)), &open_error);
  if (wal_file_ == nullptr) result.error = std::move(open_error);
  // GC after the bookkeeping, so the retained pair is exactly the new
  // generation plus its immediate predecessor as the fallback.
  CollectGarbage();

  result.stall_ns = static_cast<std::uint64_t>(obs::MonotonicNanos() - t0);
  // The stall is already clocked for CommitResult; mirroring it into the
  // registry histogram costs no extra clock reads.
  static obs::Histogram* const segment_hist =
      obs::Registry::Default().GetHistogram("wal.segment_cut_ns");
  segment_hist->Record(result.stall_ns);
  return result;
}

CommitResult WalBackend::AppendRecord(const engine::ParallelDetector& engine,
                                      const CommitContext& ctx) {
  CommitResult result;
  obs::ScopedSpan span("wal.append");
  const std::int64_t t0 = obs::MonotonicNanos();

  sio::IngestState state = ctx.state;
  // Each record carries only the vocabulary tail interned since the
  // previous record: the watermark chain keeps every commit O(quantum).
  state.dictionary_base =
      static_cast<std::uint64_t>(last_dictionary_size_);
  BinaryWriter dictionary_blob;
  ctx.dictionary->SaveState(dictionary_blob,
                            static_cast<KeywordId>(state.dictionary_base));
  state.dictionary_state = dictionary_blob.TakeData();

  const std::string record =
      EncodeWalRecord(base_checkpoint_id_, *ctx.quantum,
                      engine.quantizer().pending(), state);
  const std::uint64_t before = wal_file_->size();
  if (!AppendLogRecord(*wal_file_, record) || !wal_file_->Flush()) {
    result.error = MakeError(
        ErrorCode::kIo, "append to " + wal_file_->path() + " failed");
    // The log tail is undefined; force a fresh generation at the next
    // boundary rather than appending after a torn record.
    wal_file_.reset();
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
        static_cast<double>(obs::MonotonicNanos() - last_sync_ns_) / 1e9 >=
            options_.commit_seconds;
    if (sync_count_due || sync_time_due) {
      sync_failed = !TimedSync(*wal_file_);
      if (!sync_failed) {
        appends_since_sync_ = 0;
        last_sync_ns_ = obs::MonotonicNanos();
      }
    }
  }
  if (sync_failed) {
    NoteSyncFailure();
    // The record reached the kernel (process-crash durable); only its
    // power-loss durability failed — surfaced, not dropped.
    result.error = MakeError(ErrorCode::kSyncFailed,
                             "fdatasync " + wal_file_->path() + " failed");
  }

  last_dictionary_size_ = ctx.dictionary->size();
  ++quanta_since_segment_;
  result.persisted = true;
  result.bytes = wal_file_->size() - before;
  result.stall_ns = static_cast<std::uint64_t>(obs::MonotonicNanos() - t0);
  static obs::Histogram* const append_hist =
      obs::Registry::Default().GetHistogram("wal.append_ns");
  append_hist->Record(result.stall_ns);
  return result;
}

void WalBackend::NoteSyncFailure() {
  static obs::Counter* const counter =
      obs::Registry::Default().GetCounter("wal.sync_failures");
  ++sync_failures_;
  counter->Increment();
}

void WalBackend::CollectGarbage() {
  // Keep the live generation and one whole fallback generation; every
  // numbered file older than the fallback's segment is superseded.
  const std::uint64_t keep_from =
      have_prev_segment_ ? prev_segment_number_ : segment_number_;
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
}

}  // namespace scprt::durability
