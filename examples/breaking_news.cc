// Breaking-news monitor: runs the detector over a synthetic Twitter-scale
// stream with planted events and prints a newsroom-style feed — each event
// the moment it is first discovered, with its rank, keywords, and how far
// ahead of the event's peak the discovery happened.
//
//   $ ./breaking_news [seed]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/parallel_detector.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "stream/synthetic.h"

using namespace scprt;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;

  stream::SyntheticConfig trace_config = stream::TimeWindowPreset(seed);
  trace_config.num_messages = 60'000;
  trace_config.num_events = 10;
  trace_config.num_spurious = 2;
  std::printf("generating synthetic stream (seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  const stream::SyntheticTrace trace =
      stream::GenerateSyntheticTrace(trace_config);
  std::printf("%zu messages, %zu planted events (%zu spurious bursts)\n\n",
              trace.messages.size(), trace.script.events.size(),
              trace.script.events.size() - trace.script.real_event_count());

  detect::DetectorConfig config;
  config.quantum_size = 160;
  engine::ParallelDetector detector({config, 1}, &trace.dictionary);
  const eval::GroundTruthMatcher matcher(trace.script);

  std::vector<detect::QuantumReport> reports;
  for (const stream::Message& message : trace.messages) {
    auto report = detector.Push(message);
    if (!report) continue;
    for (const detect::EventSnapshot& snap : report->events) {
      if (!snap.newly_reported) continue;
      std::string words;
      for (KeywordId k : snap.keywords) {
        if (!words.empty()) words += ' ';
        words += trace.dictionary.Spelling(k);
      }
      const eval::ClusterVerdict verdict = matcher.Classify(snap.keywords);
      std::string truth = "unmatched";
      if (verdict.event_id != stream::kBackground) {
        const stream::PlantedEvent* event =
            trace.script.Find(verdict.event_id);
        truth = (event->spurious ? "SPURIOUS: " : "planted: ") +
                event->headline;
      }
      std::printf("[q %4lld | rank %7.1f | n=%zu] %s\n",
                  static_cast<long long>(report->quantum), snap.rank,
                  snap.node_count, words.c_str());
      std::printf("         ground truth: %s\n", truth.c_str());
    }
    reports.push_back(*std::move(report));
  }

  const eval::RunMetrics metrics =
      eval::EvaluateRun(reports, matcher, config.quantum_size);
  std::printf("\n--- run summary ---\n");
  std::printf("events discovered: %zu / %zu planted (recall %.2f)\n",
              metrics.events_discovered, metrics.events_planted,
              metrics.recall);
  std::printf("precision: %.2f over %zu reported clusters\n",
              metrics.precision, metrics.clusters_reported);
  std::printf("avg detection lag: %.1f quanta after event start\n",
              metrics.avg_detection_lag_quanta);
  return 0;
}
