#include "engine/parallel_detector.h"

#include <utility>

#include "akg/quantum_aggregate.h"
#include "common/check.h"
#include "obs/registry.h"
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
  // Clock reads only, so the aggregate is the same with observability on
  // or off.
  static obs::Histogram* const aggregate_hist =
      obs::Registry::Default().GetHistogram("engine.aggregate_ns");
  const akg::QuantumAggregate aggregate = [&] {
    obs::ScopedSpan span("aggregate");
    obs::ScopedHistogramTimer timer(aggregate_hist);
    return akg::AggregateQuantum(quantum);
  }();
  // Core detection (AKG update, clustering, ranking) as its own span so a
  // trace separates aggregation cost from detection cost per quantum.
  obs::ScopedSpan span("detect.core");
  return detector_.ProcessQuantumWithAggregate(quantum, aggregate);
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
