// Event search: detect events from a synthetic stream, persist every
// report into the LSH event store, then answer keyword queries against it
// — including after closing and re-opening the index (no detector, no
// dictionary: the store is self-contained).
//
//   $ ./event_search
//
// Demonstrates the full store loop: EventIndexer as the detector's
// ClusterSink, Commit-on-report durability, and OpenReadOnly + Query with
// Jaccard re-ranking.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "engine/parallel_detector.h"
#include "store/event_indexer.h"
#include "store/lsh_index.h"
#include "stream/synthetic.h"

using namespace scprt;

namespace {

void PrintResults(const std::vector<store::QueryResult>& results) {
  if (results.empty()) {
    std::printf("  (no matching events)\n");
    return;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const store::QueryResult& r = results[i];
    std::string joined;
    for (const std::string& keyword : r.event.keywords) {
      if (!joined.empty()) joined += " ";
      joined += keyword;
    }
    std::printf("  %zu. jaccard %.3f  quantum %lld  users ~%.0f  [%s]\n",
                i + 1, r.jaccard, static_cast<long long>(r.event.quantum),
                r.support_estimate, joined.c_str());
  }
}

}  // namespace

int main() {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "scprt_event_search")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // 1. Build the store while detecting: the indexer rides the detector's
  //    report-time sink.
  stream::SyntheticConfig trace_config = stream::TimeWindowPreset(1234);
  trace_config.num_messages = 30000;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(trace_config);

  store::LshOptions options;
  options.bands = 8;
  options.rows = 2;
  options.sync = false;  // demo speed; real deployments keep fsync on
  durability::Error error;
  auto index = store::LshIndex::Create(dir, options, &error);
  if (index == nullptr) {
    std::fprintf(stderr, "create failed: %s\n", error.ToString().c_str());
    return 1;
  }
  store::EventIndexer indexer(index.get(), /*commit_every=*/1);

  engine::ParallelDetector detector(engine::ParallelDetectorConfig{},
                                    &trace.dictionary);
  detector.set_cluster_sink(&indexer);
  for (const stream::Message& message : trace.messages) {
    (void)detector.Push(message);
  }
  (void)indexer.Flush();
  std::printf("indexed %llu reported events into %s\n",
              static_cast<unsigned long long>(indexer.indexed()),
              dir.c_str());

  // 2. Pick a real indexed keyword set to query with.
  std::vector<store::StoredEvent> events;
  if (durability::Error e = index->ScanCommitted(&events); !e.ok()) {
    std::fprintf(stderr, "scan failed: %s\n", e.ToString().c_str());
    return 1;
  }
  if (events.empty()) {
    std::printf("no events reported; try more messages\n");
    return 0;
  }
  const std::vector<std::string> exact = events.back().keywords;
  index.reset();  // close the writer

  // 3. Re-open read-only — a different process would do exactly this.
  auto reader = store::LshIndex::OpenReadOnly(dir, /*pool_frames=*/64,
                                              &error);
  if (reader == nullptr) {
    std::fprintf(stderr, "open failed: %s\n", error.ToString().c_str());
    return 1;
  }

  std::string joined;
  for (const std::string& keyword : exact) {
    if (!joined.empty()) joined += " ";
    joined += keyword;
  }
  std::printf("\nquery (exact keyword set): %s\n", joined.c_str());
  std::vector<store::QueryResult> results;
  if (durability::Error e = reader->Query(exact, 5, &results); !e.ok()) {
    std::fprintf(stderr, "query failed: %s\n", e.ToString().c_str());
    return 1;
  }
  PrintResults(results);

  std::printf("\nquery (single keyword): %s\n", exact.front().c_str());
  if (durability::Error e = reader->Query({exact.front()}, 5, &results);
      !e.ok()) {
    std::fprintf(stderr, "query failed: %s\n", e.ToString().c_str());
    return 1;
  }
  PrintResults(results);
  return 0;
}
