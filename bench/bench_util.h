// Shared helpers for the table/figure benchmark harnesses.

#ifndef SCPRT_BENCH_BENCH_UTIL_H_
#define SCPRT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <vector>

#include "engine/parallel_detector.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "eval/throughput.h"
#include "stream/synthetic.h"

namespace scprt::bench {

/// Outcome of one detector run over a trace.
struct RunResult {
  eval::RunMetrics metrics;
  eval::Throughput throughput;
  std::vector<detect::QuantumReport> reports;
};

/// Runs the detector over `trace` with `config`, times it, and evaluates
/// the reports against the planted ground truth — the one definition of
/// how a run is measured.
inline RunResult RunDetector(const stream::SyntheticTrace& trace,
                             const detect::DetectorConfig& config) {
  engine::ParallelDetector detector({config}, &trace.dictionary);
  eval::Stopwatch watch;
  RunResult result;
  result.reports = detector.Run(trace.messages);
  result.throughput.messages = trace.messages.size();
  result.throughput.seconds = watch.ElapsedSeconds();
  const eval::GroundTruthMatcher matcher(trace.script);
  result.metrics =
      eval::EvaluateRun(result.reports, matcher, config.quantum_size);
  return result;
}

/// Nominal paper configuration (Table 2).
inline detect::DetectorConfig NominalConfig() {
  detect::DetectorConfig config;
  config.quantum_size = 160;
  config.akg.high_state_threshold = 4;
  config.akg.ec_threshold = 0.20;
  config.akg.window_length = 30;
  return config;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

}  // namespace scprt::bench

#endif  // SCPRT_BENCH_BENCH_UTIL_H_
