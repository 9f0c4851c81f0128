// Story feed with crash recovery: the highest-level consumer API.
//
// Runs the detector wrapped in an EventFeed (spurious suppression + story
// grouping + exactly-once delivery), then simulates a crash halfway through
// the stream, restores from a checkpoint, and shows that the feed picks up
// without flooding duplicates.
//
//   $ ./story_feed

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "common/binary_io.h"
#include "detect/feed.h"
#include "durability/backend.h"
#include "engine/parallel_detector.h"
#include "stream/synthetic.h"

using namespace scprt;

namespace {

std::string Words(const detect::EventSnapshot& snap,
                  const text::KeywordDictionary& dictionary) {
  std::string out;
  for (KeywordId k : snap.keywords) {
    if (!out.empty()) out += ' ';
    out += dictionary.Spelling(k);
  }
  return out;
}

void Deliver(const std::vector<detect::FeedItem>& items,
             const text::KeywordDictionary& dictionary, const char* phase) {
  for (const detect::FeedItem& item : items) {
    std::printf("[%s | q %4lld | rank %7.1f] %s\n", phase,
                static_cast<long long>(item.quantum), item.lead.rank,
                Words(item.lead, dictionary).c_str());
    for (const auto& related : item.related) {
      std::printf("    + related: %s\n",
                  Words(related, dictionary).c_str());
    }
  }
}

}  // namespace

int main() {
  stream::SyntheticConfig trace_config = stream::TimeWindowPreset(90210);
  trace_config.num_messages = 50'000;
  trace_config.num_events = 8;
  trace_config.num_spurious = 2;
  const stream::SyntheticTrace trace =
      stream::GenerateSyntheticTrace(trace_config);

  detect::DetectorConfig config;
  config.quantum_size = 160;
  engine::ParallelDetector detector({config}, &trace.dictionary);
  detect::EventFeed feed;

  const std::size_t crash_at = trace.messages.size() / 2;
  std::printf("--- phase 1: streaming %zu messages ---\n", crash_at);
  for (std::size_t i = 0; i < crash_at; ++i) {
    if (auto report = detector.Push(trace.messages[i])) {
      Deliver(feed.Consume(*report), trace.dictionary, "live");
    }
  }

  // Simulated crash: persist the native structural snapshot (detector AND
  // feed — cluster ids are stable across the restore, so the feed's
  // exactly-once memory stays valid), drop everything, restore.
  std::printf("\n--- crash! checkpointing and restoring ---\n");
  std::stringstream checkpoint;
  if (!durability::SaveSnapshot(detector, checkpoint).ok()) {
    std::fprintf(stderr, "checkpoint failed\n");
    return 1;
  }
  BinaryWriter feed_snapshot;
  feed.Save(feed_snapshot);
  std::printf("checkpoint size: %zu bytes detector + %zu bytes feed "
              "(%zu pending messages)\n",
              checkpoint.str().size(), feed_snapshot.size(),
              detector.quantizer().pending().size());
  auto restored = durability::LoadEngineSnapshot(checkpoint,
                                                 &trace.dictionary, 1);
  if (restored == nullptr) {
    std::fprintf(stderr, "restore failed\n");
    return 1;
  }
  detect::EventFeed restored_feed;
  BinaryReader feed_reader(feed_snapshot.data());
  if (!restored_feed.Restore(feed_reader)) {
    std::fprintf(stderr, "feed restore failed\n");
    return 1;
  }
  feed = std::move(restored_feed);

  std::printf("\n--- phase 2: streaming the remaining %zu messages ---\n",
              trace.messages.size() - crash_at);
  for (std::size_t i = crash_at; i < trace.messages.size(); ++i) {
    if (auto report = restored->Push(trace.messages[i])) {
      Deliver(feed.Consume(*report), trace.dictionary, "rcvd");
    }
  }

  std::printf("\ndelivered %llu stories total, %zu spurious suppressed\n",
              static_cast<unsigned long long>(feed.delivered_count()),
              feed.suppressed_count());
  return 0;
}
