// Table 1 + Section 7.1 — evaluation against ground truth "headlines".
//
// The paper collected 473 Google News headlines (60 unique events), found
// 33 with enough tweet support, and discovered 31 of them, several hours
// ahead of the news site, plus ~6x additional local events. Here the
// planted event scripts play the role of the headline feed: each planted
// event's headline and start time are the external ground truth, and we
// report per-event discovery, lead time relative to the event's peak (the
// moment a headline would plausibly run), and the count of extra reported
// clusters (the "local events" analog).

#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "bench_util.h"
#include "eval/table.h"

int main() {
  using namespace scprt;
  bench::PrintHeader("Table 1 / Sec 7.1: Discovery vs ground-truth headlines");

  stream::SyntheticConfig trace_config = stream::TimeWindowPreset(2012);
  trace_config.num_messages = 100'000;
  trace_config.num_events = 12;
  trace_config.num_spurious = 2;
  const stream::SyntheticTrace trace =
      stream::GenerateSyntheticTrace(trace_config);

  const detect::DetectorConfig config = bench::NominalConfig();
  const bench::RunResult result = bench::RunDetector(trace, config);
  const eval::GroundTruthMatcher matcher(trace.script);

  // First detection quantum per planted event; count unmatched reports.
  std::map<std::int32_t, QuantumIndex> first_seen;
  std::size_t extra_reports = 0;
  std::map<std::int32_t, std::string> first_keywords;
  for (const auto& report : result.reports) {
    for (const auto& snap : report.events) {
      if (!snap.newly_reported) continue;
      const eval::ClusterVerdict verdict = matcher.Classify(snap.keywords);
      if (verdict.event_id == stream::kBackground) {
        ++extra_reports;
        continue;
      }
      if (!first_seen.count(verdict.event_id)) {
        first_seen[verdict.event_id] = report.quantum;
        std::string words;
        for (KeywordId k : snap.keywords) {
          if (!words.empty()) words += ' ';
          words += trace.dictionary.Spelling(k);
        }
        first_keywords[verdict.event_id] = words;
      }
    }
  }

  eval::AsciiTable table({"Planted headline", "Discovered cluster",
                          "start q", "found q", "lead vs peak (q)"});
  std::size_t discovered = 0;
  for (const auto& event : trace.script.events) {
    if (event.spurious) continue;
    const double start_q = static_cast<double>(event.start_seq) /
                           static_cast<double>(config.quantum_size);
    // A headline would plausibly run at the event's plateau midpoint.
    const double peak_q =
        start_q + 0.5 * static_cast<double>(event.duration) /
                      static_cast<double>(config.quantum_size);
    auto it = first_seen.find(event.id);
    if (it == first_seen.end()) {
      table.AddRow({event.headline, "(missed)", eval::AsciiTable::Num(start_q, 0),
                    "-", "-"});
      continue;
    }
    ++discovered;
    std::string cluster = first_keywords[event.id];
    if (cluster.size() > 42) cluster = cluster.substr(0, 39) + "...";
    table.AddRow({event.headline, cluster, eval::AsciiTable::Num(start_q, 0),
                  eval::AsciiTable::Int(static_cast<std::uint64_t>(it->second)),
                  eval::AsciiTable::Num(
                      peak_q - static_cast<double>(it->second), 1)});
  }
  table.Print(std::cout);

  std::printf("\nsummary:\n");
  std::printf("  planted real events:        %zu\n",
              trace.script.real_event_count());
  std::printf("  discovered:                 %zu\n", discovered);
  std::printf("  additional clusters (local-events analog): %zu\n",
              extra_reports);
  std::printf("  avg detection lag after event start: %.1f quanta\n",
              result.metrics.avg_detection_lag_quanta);
  std::printf(
      "\nexpected shape (paper Sec 7.1): nearly all sufficiently-tweeted "
      "events discovered, with positive lead over the headline-peak "
      "moment.\n");
  return 0;
}
