#include "engine/parallel_detector.h"

#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace scprt::engine {

ParallelDetector::ParallelDetector(const ParallelDetectorConfig& config,
                                   const text::KeywordDictionary* dictionary)
    : detector_(config.detector, dictionary),
      quantizer_(config.detector.quantum_size) {
  SCPRT_CHECK(config.threads == 1);  // the engine runs inline
}

std::optional<detect::QuantumReport> ParallelDetector::Push(
    const stream::Message& message) {
  auto quantum = quantizer_.Push(message);
  if (!quantum) return std::nullopt;
  return Detect(*quantum);
}

detect::QuantumReport ParallelDetector::ProcessQuantum(
    const stream::Quantum& quantum) {
  // The quantizer re-bases only before the first quantum. After it, the
  // index must be the clock's next one, checked before any state changes
  // (the AKG layer stamps its window by position). The top index leaves
  // the clock no successor, so no quantum may carry it.
  SCPRT_CHECK(quantum.index < std::numeric_limits<QuantumIndex>::max());
  if (core().akg().id_sets().depth() == 0) {
    if (quantizer_.next_index() <= quantum.index) {
      quantizer_.SetNextIndex(quantum.index + 1);
    }
  } else {
    SCPRT_CHECK(quantum.index == quantizer_.next_index());
    quantizer_.SetNextIndex(quantum.index + 1);
  }
  return Detect(quantum);
}

detect::QuantumReport ParallelDetector::Detect(
    const stream::Quantum& quantum) {
  // Core detection (aggregate, AKG update, clustering, ranking) as one span
  // so a trace shows each quantum's detection cost.
  obs::ScopedSpan span("detect.core");
  return detector_.ProcessQuantum(quantum);
}

std::vector<detect::QuantumReport> ParallelDetector::Run(
    const std::vector<stream::Message>& trace) {
  std::vector<detect::QuantumReport> reports;
  for (const stream::Message& m : trace) {
    if (auto report = Push(m)) reports.push_back(*std::move(report));
  }
  return reports;
}

void ParallelDetector::SaveState(BinaryWriter& out) const {
  detector_.SaveState(out, quantizer_);
}

bool ParallelDetector::RestoreState(BinaryReader& in) {
  return detector_.RestoreState(in, quantizer_);
}

}  // namespace scprt::engine
