#include "engine/parallel_detector.h"

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
  return ProcessQuantum(*quantum);
}

detect::QuantumReport ParallelDetector::ProcessQuantum(
    const stream::Quantum& quantum) {
  if (quantizer_.next_index() <= quantum.index) {
    quantizer_.SetNextIndex(quantum.index + 1);
  }
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
