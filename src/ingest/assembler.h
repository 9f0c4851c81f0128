// The sink side of the ingest pipeline: where finalized messages go, and
// the canonical sink — a QuantumAssembler that cuts δ-sized quanta and
// drives a detector.

#ifndef SCPRT_INGEST_ASSEMBLER_H_
#define SCPRT_INGEST_ASSEMBLER_H_

#include <functional>
#include <vector>

#include "detect/event.h"
#include "engine/parallel_detector.h"
#include "ingest/metrics.h"
#include "stream/message.h"
#include "stream/quantizer.h"

namespace scprt::ingest {

/// Receives finalized messages from the pipeline, in stream order, on the
/// pipeline's driver thread.
class MessageSink {
 public:
  virtual ~MessageSink() = default;

  /// One message. Called in seq order.
  virtual void Push(stream::Message message) = 0;

  /// End of stream (flush opportunity). Default: nothing.
  virtual void Finish() {}

  /// The pipeline hands its live counters to the sink before pumping, so
  /// sink-side progress (quanta cut) shows up in the same snapshot as the
  /// frontend counters. Default: ignored.
  virtual void BindMetrics(IngestMetrics* metrics) { (void)metrics; }
};

/// Cuts the message stream into δ-sized quanta and hands each to a
/// processing function — the detector or a test double. A trailing
/// partial quantum is processed on Finish() when `flush_partial` is set
/// (live semantics: end of stream means "report on what arrived"),
/// matching stream::SplitIntoQuanta(keep_partial=true).
class QuantumAssembler final : public MessageSink {
 public:
  using ProcessFn =
      std::function<detect::QuantumReport(const stream::Quantum&)>;
  using ReportFn = std::function<void(const detect::QuantumReport&)>;

  /// `process` consumes each cut quantum; `on_report` (optional) observes
  /// every report as it is produced.
  QuantumAssembler(std::size_t quantum_size, ProcessFn process,
                   ReportFn on_report = nullptr, bool flush_partial = true);

  /// The sink driving the detector (borrowed; must outlive this).
  static QuantumAssembler For(engine::ParallelDetector& detector,
                              ReportFn on_report = nullptr,
                              bool flush_partial = true);

  void Push(stream::Message message) override;
  void Finish() override;
  void BindMetrics(IngestMetrics* metrics) override { metrics_ = metrics; }

  /// Whether reports accumulate in reports() (default). Long-running
  /// streaming consumers that take reports via the callback should turn
  /// this off — retention grows one QuantumReport per δ messages forever.
  void set_keep_reports(bool keep) { keep_reports_ = keep; }

  /// Every report produced so far, in quantum order (empty when
  /// keep_reports is off).
  const std::vector<detect::QuantumReport>& reports() const {
    return reports_;
  }
  std::vector<detect::QuantumReport> TakeReports() {
    return std::move(reports_);
  }

  /// Quanta cut so far.
  std::uint64_t quanta() const { return quanta_; }

  /// The δ-cut quantizer — in the ingest pipeline this is the outermost
  /// accumulation point, so its clock and pending partial quantum are what
  /// a checkpoint must capture (durability::CheckpointExtras).
  const stream::Quantizer& quantizer() const { return quantizer_; }

  /// Checkpoint resume: installs the restored clock, pending partial
  /// quantum and cumulative cut count in one step. Same contract as
  /// stream::Quantizer::Restore — `pending` must hold fewer than a
  /// quantum's worth of messages; returns false (assembler unchanged)
  /// otherwise.
  bool Restore(QuantumIndex next_index,
               std::vector<stream::Message> pending, std::uint64_t quanta);

  /// Moves the unflushed partial quantum out (a finished-without-flush
  /// segment run hands it to the next segment's assembler).
  std::vector<stream::Message> TakePending() {
    return quantizer_.TakePending();
  }

 private:
  void Process(const stream::Quantum& quantum);

  stream::Quantizer quantizer_;
  ProcessFn process_;
  ReportFn on_report_;
  bool flush_partial_;
  bool keep_reports_ = true;
  bool finished_ = false;
  std::uint64_t quanta_ = 0;
  IngestMetrics* metrics_ = nullptr;
  std::vector<detect::QuantumReport> reports_;
};

/// Swallows messages (frontend-only benchmarking).
class NullSink final : public MessageSink {
 public:
  void Push(stream::Message message) override {
    messages_ += 1;
    keywords_ += message.keywords.size();
  }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t keywords() const { return keywords_; }

 private:
  std::uint64_t messages_ = 0;
  std::uint64_t keywords_ = 0;
};

/// Collects messages verbatim (tests).
class CollectSink final : public MessageSink {
 public:
  void Push(stream::Message message) override {
    messages_.push_back(std::move(message));
  }

  const std::vector<stream::Message>& messages() const { return messages_; }

 private:
  std::vector<stream::Message> messages_;
};

}  // namespace scprt::ingest

#endif  // SCPRT_INGEST_ASSEMBLER_H_
