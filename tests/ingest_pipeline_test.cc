// End-to-end tests of the ingest pipeline: stream-order delivery,
// worker-count determinism, backpressure bounds, load-shedding policies,
// and the headline equivalence property — the raw-text path (JSONL ->
// tokenize -> intern -> quanta -> detector) emits bit-identical reports to
// the pre-tokenized trace path on the same token stream. Also stresses the
// SpscQueue the pipeline hands records through (ThreadSanitizer-friendly).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "detect/detector.h"
#include "detect/report.h"
#include "engine/parallel_detector.h"
#include "ingest/admission.h"
#include "ingest/assembler.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "ingest/spsc_queue.h"
#include "ingest/text_export.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "text/concurrent_dictionary.h"

namespace scprt::ingest {
namespace {

// A small but eventful trace: enough volume for several quanta and real
// cluster activity, small enough to keep the suite fast.
stream::SyntheticTrace SmallTrace(std::uint64_t seed = 7) {
  stream::SyntheticConfig config;
  config.seed = seed;
  config.num_messages = 12'000;
  config.num_users = 2'000;
  config.background_vocab = 3'000;
  config.num_events = 5;
  config.num_spurious = 1;
  config.event_duration_min = 3'000;
  config.event_duration_max = 6'000;
  config.peak_share_min = 0.04;
  config.peak_share_max = 0.10;
  return GenerateSyntheticTrace(config);
}

detect::DetectorConfig SmallDetectorConfig() {
  detect::DetectorConfig config;
  config.quantum_size = 120;
  return config;
}

std::vector<std::uint64_t> Digests(
    const std::vector<detect::QuantumReport>& reports) {
  std::vector<std::uint64_t> digests;
  digests.reserve(reports.size());
  for (const auto& report : reports) {
    digests.push_back(detect::ReportDigest(report));
  }
  return digests;
}

// Reference for the fresh-dictionary path: re-intern the trace's keyword
// stream serially, in arrival order, into a new dictionary — exactly the
// id assignment the pipeline must reproduce at any worker count.
struct ReinternedTrace {
  std::vector<stream::Message> messages;
  text::KeywordDictionary dictionary;
};

ReinternedTrace ReinternSerially(const stream::SyntheticTrace& trace) {
  ReinternedTrace out;
  out.messages.reserve(trace.messages.size());
  for (const stream::Message& message : trace.messages) {
    stream::Message copy = message;
    copy.keywords.clear();
    for (const KeywordId id : message.keywords) {
      copy.keywords.push_back(
          out.dictionary.Intern(trace.dictionary.Spelling(id)));
    }
    out.messages.push_back(std::move(copy));
  }
  return out;
}

std::vector<detect::QuantumReport> RunTracePath(
    const std::vector<stream::Message>& messages,
    const text::KeywordDictionary& dictionary,
    const detect::DetectorConfig& config) {
  engine::ParallelDetector detector({config}, &dictionary);
  std::vector<detect::QuantumReport> reports;
  for (const stream::Quantum& quantum : stream::SplitIntoQuanta(
           messages, config.quantum_size, /*keep_partial=*/true)) {
    reports.push_back(detector.ProcessQuantum(quantum));
  }
  return reports;
}

// ------------------------------------------------- Order + determinism --

TEST(IngestPipelineTest, DeliversMessagesInStreamOrder) {
  const stream::SyntheticTrace trace = SmallTrace();
  std::stringstream jsonl;
  ASSERT_TRUE(WriteJsonl(trace, jsonl));

  IngestConfig config;
  config.workers = 4;
  config.queue_capacity = 64;
  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(trace.dictionary);
  IngestPipeline pipeline(config, &dictionary);

  JsonlSource source(jsonl);
  CollectSink sink;
  const IngestSnapshot stats = pipeline.Run(source, sink);

  ASSERT_EQ(sink.messages().size(), trace.messages.size());
  EXPECT_EQ(stats.messages_emitted, trace.messages.size());
  EXPECT_EQ(stats.shed, 0u);
  for (std::size_t i = 0; i < sink.messages().size(); ++i) {
    const stream::Message& got = sink.messages()[i];
    const stream::Message& want = trace.messages[i];
    EXPECT_EQ(got.seq, i);
    ASSERT_EQ(got.user, want.user) << "message " << i;
    ASSERT_EQ(got.keywords, want.keywords) << "message " << i;
  }
}

TEST(IngestPipelineTest, FreshDictionaryIdsMatchSerialReintern) {
  const stream::SyntheticTrace trace = SmallTrace();
  const ReinternedTrace reference = ReinternSerially(trace);

  for (const std::size_t workers : {1u, 4u}) {
    std::stringstream jsonl;
    ASSERT_TRUE(WriteJsonl(trace, jsonl));
    IngestConfig config;
    config.workers = workers;
    config.queue_capacity = 32;
    text::ConcurrentKeywordDictionary dictionary;  // fresh — ids assigned live
    IngestPipeline pipeline(config, &dictionary);
    JsonlSource source(jsonl);
    CollectSink sink;
    pipeline.Run(source, sink);

    ASSERT_EQ(sink.messages().size(), reference.messages.size());
    for (std::size_t i = 0; i < sink.messages().size(); ++i) {
      ASSERT_EQ(sink.messages()[i].keywords, reference.messages[i].keywords)
          << "workers=" << workers << " message " << i;
    }
    EXPECT_EQ(dictionary.size(), reference.dictionary.size());
  }
}

// ------------------------------------------------------- Equivalence ----

TEST(IngestPipelineTest, RawTextPathMatchesTracePathBitIdentically) {
  const stream::SyntheticTrace trace = SmallTrace();
  const detect::DetectorConfig detector_config = SmallDetectorConfig();

  // Reference: the pre-tokenized trace through the detector.
  const std::vector<std::uint64_t> want = Digests(
      RunTracePath(trace.messages, trace.dictionary, detector_config));
  ASSERT_GT(want.size(), 50u);

  // Raw-text path: JSONL -> 4 tokenizer workers -> engine, with the
  // vocabulary seeded so ids line up with the reference run.
  std::stringstream jsonl;
  ASSERT_TRUE(WriteJsonl(trace, jsonl));
  IngestConfig config;
  config.workers = 4;
  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(trace.dictionary);
  IngestPipeline pipeline(config, &dictionary);

  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = detector_config;
  engine::ParallelDetector detector(engine_config, &dictionary.view());
  QuantumAssembler sink = QuantumAssembler::For(detector);

  JsonlSource source(jsonl);
  pipeline.Run(source, sink);
  EXPECT_EQ(Digests(sink.reports()), want);
}

TEST(IngestPipelineTest, FreshDictionaryRawTextMatchesReinternedTracePath) {
  // Without seeding, the raw-text path must still match the trace path —
  // after the trace is re-interned through the same first-arrival id
  // assignment the collector performs.
  const stream::SyntheticTrace trace = SmallTrace(11);
  const detect::DetectorConfig detector_config = SmallDetectorConfig();
  const ReinternedTrace reference = ReinternSerially(trace);
  const std::vector<std::uint64_t> want = Digests(RunTracePath(
      reference.messages, reference.dictionary, detector_config));

  std::stringstream jsonl;
  ASSERT_TRUE(WriteJsonl(trace, jsonl));
  IngestConfig config;
  config.workers = 3;
  text::ConcurrentKeywordDictionary dictionary;
  IngestPipeline pipeline(config, &dictionary);
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = detector_config;
  engine::ParallelDetector detector(engine_config, &dictionary.view());
  QuantumAssembler sink = QuantumAssembler::For(detector);
  JsonlSource source(jsonl);
  pipeline.Run(source, sink);

  EXPECT_EQ(Digests(sink.reports()), want);
}

TEST(IngestPipelineTest, SecondRunGetsFreshCounters) {
  IngestConfig config;
  config.workers = 2;
  text::ConcurrentKeywordDictionary dictionary;
  IngestPipeline pipeline(config, &dictionary);

  for (int round = 0; round < 2; ++round) {
    std::stringstream input("1\tfirst words here\n2\tsecond line\n");
    TsvSource source(input);
    CollectSink sink;
    const IngestSnapshot stats = pipeline.Run(source, sink);
    // Counters describe this run alone — they do not accumulate across
    // Run() calls (the dictionary, by contrast, keeps growing).
    EXPECT_EQ(stats.records_read, 2u) << "round " << round;
    EXPECT_EQ(stats.messages_emitted, 2u) << "round " << round;
  }
}

// ------------------------------------------------ Backpressure bounds ---

// A sink slow enough to guarantee the staging queues fill.
class SlowSink final : public MessageSink {
 public:
  explicit SlowSink(std::chrono::microseconds delay) : delay_(delay) {}

  void Push(stream::Message message) override {
    std::this_thread::sleep_for(delay_);
    messages_.push_back(std::move(message));
  }

  const std::vector<stream::Message>& messages() const { return messages_; }

 private:
  std::chrono::microseconds delay_;
  std::vector<stream::Message> messages_;
};

TEST(IngestPipelineTest, BlockPolicyNeverDropsAndBoundsQueues) {
  const stream::SyntheticTrace trace = SmallTrace(17);
  std::stringstream jsonl;
  ASSERT_TRUE(WriteJsonl(trace, jsonl));

  IngestConfig config;
  config.workers = 2;
  config.queue_capacity = 8;  // tiny queues force constant backpressure
  config.admission.policy = OverloadPolicy::kBlock;
  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(trace.dictionary);
  IngestPipeline pipeline(config, &dictionary);
  JsonlSource source(jsonl);
  CollectSink sink;
  const IngestSnapshot stats = pipeline.Run(source, sink);

  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.admitted, trace.messages.size());
  EXPECT_EQ(sink.messages().size(), trace.messages.size());
  // The bounded queues really were bounded.
  EXPECT_LE(stats.peak_queue_depth, config.queue_capacity);
  EXPECT_GT(stats.peak_queue_depth, 0u);
}

TEST(IngestPipelineTest, NoDropsBelowCapacityUnderAnyPolicy) {
  // Volume <= one worker's queue capacity: even a sink that sleeps per
  // message and the drop-tail policy must shed nothing, because the
  // staging queue can absorb the entire stream.
  const std::size_t capacity = 64;
  for (const OverloadPolicy policy :
       {OverloadPolicy::kDropTail, OverloadPolicy::kFairSample}) {
    std::stringstream input;
    for (std::size_t i = 0; i < capacity; ++i) {
      input << i % 7 << "\tword" << i << " filler text\n";
    }
    IngestConfig config;
    config.workers = 1;
    config.queue_capacity = capacity;
    config.admission.policy = policy;
    config.admission.sample_keep_fraction = 0.01;  // brutal if it applied
    text::ConcurrentKeywordDictionary dictionary;
    IngestPipeline pipeline(config, &dictionary);
    TsvSource source(input);
    SlowSink sink(std::chrono::microseconds(200));
    const IngestSnapshot stats = pipeline.Run(source, sink);

    EXPECT_EQ(stats.shed, 0u) << "policy " << static_cast<int>(policy);
    EXPECT_EQ(stats.messages_emitted, capacity);
  }
}

TEST(IngestPipelineTest, DropTailShedsUnderOverloadButDeliversTheRest) {
  const stream::SyntheticTrace trace = SmallTrace(19);
  std::stringstream jsonl;
  ASSERT_TRUE(WriteJsonl(trace, jsonl));

  IngestConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.admission.policy = OverloadPolicy::kDropTail;
  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(trace.dictionary);
  IngestPipeline pipeline(config, &dictionary);
  JsonlSource source(jsonl);
  SlowSink sink(std::chrono::microseconds(30));
  const IngestSnapshot stats = pipeline.Run(source, sink);

  // Conservation: every record read is either delivered or counted shed.
  EXPECT_EQ(stats.records_read, trace.messages.size());
  EXPECT_EQ(stats.admitted + stats.shed, stats.records_read);
  EXPECT_EQ(sink.messages().size(), stats.admitted);
  // The slow sink guarantees genuine overload, so some shedding happened —
  // and the stream order of the survivors is preserved.
  EXPECT_GT(stats.shed, 0u);
  for (std::size_t i = 1; i < sink.messages().size(); ++i) {
    EXPECT_LT(sink.messages()[i - 1].seq, sink.messages()[i].seq);
  }
}

TEST(IngestPipelineTest, FairSampleShedsOnlyOutOfSampleUsers) {
  const stream::SyntheticTrace trace = SmallTrace(23);
  std::stringstream jsonl;
  ASSERT_TRUE(WriteJsonl(trace, jsonl));

  IngestConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.admission.policy = OverloadPolicy::kFairSample;
  config.admission.seed = 2024;
  config.admission.sample_keep_fraction = 0.3;
  const AdmissionController reference(config.admission);

  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(trace.dictionary);
  IngestPipeline pipeline(config, &dictionary);
  JsonlSource source(jsonl);
  SlowSink sink(std::chrono::microseconds(30));
  const IngestSnapshot stats = pipeline.Run(source, sink);

  ASSERT_GT(stats.shed, 0u);  // the slow sink forced overload

  // Sampling is by user and deterministic under the seed: in-sample users
  // can only ever be blocked, never shed, so their full message stream is
  // delivered; shedding is confined to out-of-sample users (who may still
  // get messages through whenever the queue had room — that is allowed).
  std::unordered_map<UserId, std::size_t> sent;
  std::unordered_map<UserId, std::size_t> delivered;
  for (const stream::Message& message : trace.messages) ++sent[message.user];
  for (const stream::Message& message : sink.messages()) {
    ++delivered[message.user];
  }
  std::size_t in_sample_total = 0;
  for (const auto& [user, count] : sent) {
    if (reference.InSample(user)) {
      in_sample_total += count;
      EXPECT_EQ(delivered[user], count) << "in-sample user " << user;
    } else {
      EXPECT_LE(delivered[user], count) << "user " << user;
    }
  }
  EXPECT_GE(sink.messages().size(), in_sample_total);
}

TEST(SpscQueueTest, OrderedHandoffAcrossThreads) {
  SpscQueue<std::size_t> queue(64);
  constexpr std::size_t kItems = 200'000;
  std::thread consumer([&] {
    std::size_t expected = 0;
    while (expected < kItems) {
      if (const std::size_t* value = queue.Front()) {
        ASSERT_EQ(*value, expected);
        queue.Pop();
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::size_t i = 0; i < kItems; ++i) {
    while (!queue.TryPush(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.full());
  for (std::size_t i = 0; i < queue.capacity(); ++i) {
    EXPECT_TRUE(queue.TryPush(i));
  }
  EXPECT_TRUE(queue.full());
  EXPECT_FALSE(queue.TryPush(0));
}

}  // namespace
}  // namespace scprt::ingest
