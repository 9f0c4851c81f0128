#include "ingest/durable.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/registry.h"

namespace scprt::ingest {

namespace sio = detect::snapshot_io;

namespace {

durability::BackendOptions BackendOptionsFor(const DurableConfig& durable) {
  durability::BackendOptions options;
  options.directory = durable.directory;
  options.fsync = durable.fsync;
  options.commit_quanta = durable.checkpoint_quanta;
  options.commit_seconds = durable.checkpoint_seconds;
  options.full_interval = durable.full_interval;
  return options;
}

}  // namespace

DurableIngest::DurableIngest(const IngestConfig& ingest,
                             const engine::ParallelDetectorConfig& engine,
                             const DurableConfig& durable)
    : ingest_config_(ingest),
      engine_config_(engine),
      engine_(std::make_unique<engine::ParallelDetector>(
          engine_config_, &dictionary_.view())),
      backend_(BackendOptionsFor(durable)) {}

DurableIngest::~DurableIngest() = default;

ResumeResult DurableIngest::Resume() {
  SCPRT_CHECK(pipeline_ == nullptr);  // before the first Run
  ResumeResult result;
  const std::int64_t t0 = obs::MonotonicNanos();

  durability::RecoverOptions options;
  options.dictionary = &dictionary_;
  durability::RecoverResult recovered = backend_.Recover(options);
  result.error = std::move(recovered.error);
  result.detail = std::move(recovered.detail);
  switch (recovered.outcome) {
    case durability::RecoverResult::Outcome::kFresh:
      return result;
    case durability::RecoverResult::Outcome::kFailed:
      result.outcome = ResumeResult::Outcome::kFailed;
      return result;
    case durability::RecoverResult::Outcome::kRecovered:
      break;
  }

  engine_ = std::move(recovered.engine);
  // The recovered detector configuration is authoritative: the engine was
  // restored with it, and resuming against a different δ would either
  // break the pending partial quantum or silently cut different-sized
  // quanta against state built at the old size.
  engine_config_.detector = engine_->core().config();
  replayed_quanta_ = recovered.replayed_quanta;

  const sio::IngestState& state = recovered.state;
  resume_pending_messages_ = engine_->TakePendingMessages();
  resume_next_quantum_ = engine_->next_quantum_index();
  resume_cursor_ = SourcePosition{state.cursor_record, state.cursor_byte};
  next_seq_ = state.next_seq;
  quanta_cut_total_ = state.quanta_cut;
  records_read_base_ = state.records_read;
  shed_base_ = state.shed;
  // Restore the admission seeds so the kFairSample survivor set is the
  // same function of user ids it was before the crash.
  ingest_config_.admission.policy =
      static_cast<OverloadPolicy>(state.admission_policy);
  ingest_config_.admission.seed = state.admission_seed;
  ingest_config_.admission.sample_keep_fraction =
      state.sample_keep_fraction;
  resume_pending_ = true;

  result.outcome = ResumeResult::Outcome::kResumed;
  result.segment_path = std::move(recovered.segment_path);
  result.wal_path = std::move(recovered.wal_path);
  result.next_seq = next_seq_;
  result.next_quantum = resume_next_quantum_;
  result.cursor = resume_cursor_;
  resume_ns_ = static_cast<std::uint64_t>(obs::MonotonicNanos() - t0);
  return result;
}

std::optional<IngestSnapshot> DurableIngest::Run(
    MessageSource& source, QuantumAssembler::ReportFn on_report,
    bool flush_partial) {
  if (resume_pending_ && !resume_consumed_) {
    const std::int64_t t0 = obs::MonotonicNanos();
    if (!source.Seek(resume_cursor_)) {
      SCPRT_LOG(kWarning) << "resume cursor seek failed (record "
                        << resume_cursor_.record_index << ", byte "
                        << resume_cursor_.byte_offset
                        << ") — source cannot replay its tail";
      return std::nullopt;
    }
    resume_ns_ += static_cast<std::uint64_t>(obs::MonotonicNanos() - t0);
  }
  if (pipeline_ == nullptr) {
    pipeline_ =
        std::make_unique<IngestPipeline>(ingest_config_, &dictionary_);
    pipeline_->metrics().SetRecoveryNs(resume_ns_);
  }

  QuantumAssembler assembler(
      engine_config_.detector.quantum_size,
      [this](const stream::Quantum& quantum) {
        return ProcessQuantum(quantum);
      },
      std::move(on_report), flush_partial);
  // Reports flow through the callback; a durable session is long-running,
  // so never accumulate them.
  assembler.set_keep_reports(false);
  SCPRT_CHECK(assembler.Restore(resume_next_quantum_,
                                std::move(resume_pending_messages_),
                                quanta_cut_total_));
  resume_pending_messages_.clear();

  RunOptions options;
  options.first_seq = next_seq_;
  options.suppress_shedding = resume_pending_ && !resume_consumed_;
  suppression_active_ = options.suppress_shedding;
  resume_consumed_ = true;

  IngestSnapshot snapshot = pipeline_->Run(source, assembler, options);

  // Carry the stream coordinates into a possible next Run: the clock,
  // (when this run did not flush) the still-pending partial quantum, and
  // the lifetime counters — pipeline metrics reset per Run, so each
  // run's contribution folds into the bases the commits persist.
  next_seq_ += snapshot.messages_emitted;
  resume_next_quantum_ = assembler.quantizer().next_index();
  resume_pending_messages_ = assembler.TakePending();
  records_read_base_ += snapshot.records_read;
  shed_base_ += snapshot.shed;
  return snapshot;
}

detect::QuantumReport DurableIngest::ProcessQuantum(
    const stream::Quantum& quantum) {
  detect::QuantumReport report = engine_->ProcessQuantum(quantum);
  ++quanta_cut_total_;

  // Hand the boundary to the backend with the frontend state at this
  // fence; it appends a log record or cuts a new generation.
  durability::CommitContext ctx;
  ctx.quantum = &quantum;
  ctx.dictionary = &dictionary_;
  sio::IngestState& state = ctx.state;
  state.admission_policy =
      static_cast<std::uint8_t>(ingest_config_.admission.policy);
  state.admission_seed = ingest_config_.admission.seed;
  state.sample_keep_fraction = ingest_config_.admission.sample_keep_fraction;
  // The record that closed this quantum is the last one the driver
  // collected, so its mark is exactly the fence point: the cursor, and
  // the records read and shed up to it (not the driver's read-ahead,
  // which a resume reads again from the cursor).
  const StreamMark& fence = pipeline_->last_collected();
  state.cursor_record = fence.position.record_index;
  state.cursor_byte = fence.position.byte_offset;
  state.next_seq = quantum.messages.back().seq + 1;
  state.quanta_cut = quanta_cut_total_;
  state.records_read = records_read_base_ + fence.records_read;
  state.shed = shed_base_ + fence.shed;

  durability::CommitResult commit = backend_.Commit(*engine_, ctx);
  if (!commit.error.ok()) {
    ++checkpoint_failures_;
    last_error_ = commit.error;
    pipeline_->metrics().AddCheckpointFailure();
    SCPRT_LOG(kWarning) << "durable commit failed ("
                      << commit.error.ToString()
                      << ") — recovery point ages until the next attempt";
  }
  const std::uint64_t sync_failures = backend_.sync_failures();
  if (sync_failures > sync_failures_seen_) {
    pipeline_->metrics().AddSyncFailure(sync_failures -
                                        sync_failures_seen_);
    sync_failures_seen_ = sync_failures;
  }
  if (commit.persisted) {
    pipeline_->metrics().AddCommit(commit.bytes, commit.stall_ns);
    if (commit.checkpoint) {
      pipeline_->metrics().AddCheckpoint(commit.bytes, commit.stall_ns);
    }
    // Durability is re-established: end the post-resume lossless-replay
    // window and give the configured overload policy back its say.
    if (suppression_active_ && commit.error.ok()) {
      pipeline_->set_suppress_shedding(false);
      suppression_active_ = false;
    }
  }
  return report;
}

}  // namespace scprt::ingest
