#include "ingest/assembler.h"

#include <utility>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scprt::ingest {

QuantumAssembler::QuantumAssembler(std::size_t quantum_size,
                                   ProcessFn process, ReportFn on_report,
                                   bool flush_partial)
    : quantizer_(quantum_size),
      process_(std::move(process)),
      on_report_(std::move(on_report)),
      flush_partial_(flush_partial) {
  SCPRT_CHECK(process_ != nullptr);
}

QuantumAssembler QuantumAssembler::For(engine::ParallelDetector& detector,
                                       ReportFn on_report,
                                       bool flush_partial) {
  return QuantumAssembler(
      detector.core().config().quantum_size,
      [&detector](const stream::Quantum& quantum) {
        return detector.ProcessQuantum(quantum);
      },
      std::move(on_report), flush_partial);
}

bool QuantumAssembler::Restore(QuantumIndex next_index,
                               std::vector<stream::Message> pending,
                               std::uint64_t quanta) {
  if (!quantizer_.Restore(next_index, std::move(pending))) return false;
  quanta_ = quanta;
  return true;
}

void QuantumAssembler::Push(stream::Message message) {
  SCPRT_CHECK(!finished_);
  if (auto quantum = quantizer_.Push(std::move(message))) {
    Process(*quantum);
  }
}

void QuantumAssembler::Finish() {
  if (finished_) return;
  finished_ = true;
  if (!flush_partial_) return;
  if (auto quantum = quantizer_.Flush()) {
    Process(*quantum);
  }
}

void QuantumAssembler::Process(const stream::Quantum& quantum) {
  // Top-level span of the trace hierarchy: everything the quantum costs
  // (detect, rank, commit) nests under this interval on the driver thread.
  static obs::Histogram* const quantum_hist =
      obs::Registry::Default().GetHistogram("ingest.quantum_process_ns");
  obs::ScopedSpan span("quantum");
  obs::ScopedHistogramTimer timer(quantum_hist);
  detect::QuantumReport report = process_(quantum);
  ++quanta_;
  if (metrics_) metrics_->AddQuantaEmitted(1);
  if (on_report_) on_report_(report);
  if (keep_reports_) reports_.push_back(std::move(report));
}

}  // namespace scprt::ingest
