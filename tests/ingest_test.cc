// Unit tests for the ingest frontend: JSONL/TSV parsing, sources, the
// trace -> raw-text renderers, admission control, the concurrent
// dictionary, the worker-stage tokenize/resolve transform and the quantum
// assembler. The end-to-end pipeline (threads, backpressure, equivalence)
// is tests/ingest_pipeline_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ingest/admission.h"
#include "ingest/assembler.h"
#include "ingest/jsonl.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "ingest/text_export.h"
#include "stream/synthetic.h"
#include "text/concurrent_dictionary.h"
#include "text/synonyms.h"
#include "text/tokenizer.h"

namespace scprt::ingest {
namespace {

// ---------------------------------------------------------------- JSONL --

TEST(JsonlTest, ParsesMinimalRecord) {
  JsonlRecord record;
  ASSERT_TRUE(ParseJsonlRecord(R"({"user": 42, "text": "hello world"})",
                               record));
  EXPECT_EQ(record.user, 42u);
  EXPECT_EQ(record.text, "hello world");
  EXPECT_EQ(record.event_id, -1);
}

TEST(JsonlTest, ParsesEventLabelAndAnyKeyOrder) {
  JsonlRecord record;
  ASSERT_TRUE(ParseJsonlRecord(
      R"({"text": "quake", "event": 7, "user": 3})", record));
  EXPECT_EQ(record.user, 3u);
  EXPECT_EQ(record.event_id, 7);
  EXPECT_EQ(record.text, "quake");
}

TEST(JsonlTest, DecodesStringEscapes) {
  JsonlRecord record;
  ASSERT_TRUE(ParseJsonlRecord(
      R"({"user": 1, "text": "a\tb\n\"q\" \\ \/ Aé"})", record));
  EXPECT_EQ(record.text, "a\tb\n\"q\" \\ / A\xc3\xa9");
}

TEST(JsonlTest, DecodesSurrogatePairs) {
  JsonlRecord record;
  ASSERT_TRUE(ParseJsonlRecord(R"({"user": 1, "text": "😀"})",
                               record));
  EXPECT_EQ(record.text, "\xf0\x9f\x98\x80");  // U+1F600
}

TEST(JsonlTest, SkipsUnknownKeysOfAnyType) {
  JsonlRecord record;
  ASSERT_TRUE(ParseJsonlRecord(
      R"({"id": "x", "geo": {"lat": 1.5, "tags": ["a", {"b": null}]},)"
      R"( "verified": true, "user": 9, "retweets": -3.2e4, "text": "ok"})",
      record));
  EXPECT_EQ(record.user, 9u);
  EXPECT_EQ(record.text, "ok");
}

TEST(JsonlTest, UnknownNumericFieldsMayOverflowInt64) {
  // Real-world dumps carry 64-bit-plus ids in fields we skip; they must
  // not poison the record (only "user"/"event" are range-checked).
  JsonlRecord record;
  ASSERT_TRUE(ParseJsonlRecord(
      R"({"user": 1, "text": "ok", "id": 99999999999999999999999999})",
      record));
  EXPECT_EQ(record.user, 1u);
  EXPECT_EQ(record.text, "ok");
}

TEST(JsonlTest, RejectsMalformedLines) {
  JsonlRecord record;
  const char* bad[] = {
      "",                                     // empty
      "not json",                             // no object
      R"({"user": 1})",                       // missing text
      R"({"text": "x"})",                     // missing user
      R"({"user": -1, "text": "x"})",         // negative user
      R"({"user": 1.5, "text": "x"})",        // non-integral user
      R"({"user": 99999999999, "text": "x"})",  // user overflows uint32
      R"({"user": 1, "text": "x"} trailing)",   // trailing garbage
      R"({"user": 1, "text": "unterminated)",   // bad string
      R"({"user": 1, "text": "bad \x esc"})",   // bad escape
      R"({"user": 1, "text": "x", "event": "y"})",  // non-numeric event
      R"({"user": 1 "text": "x"})",           // missing comma
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseJsonlRecord(line, record)) << line;
  }
}

// -------------------------------------------------------------- Sources --

TEST(JsonlSourceTest, StreamsRecordsSkippingMalformed) {
  std::istringstream in(
      "{\"user\": 1, \"text\": \"first message\"}\n"
      "\n"
      "garbage line\n"
      "{\"user\": 2, \"event\": 3, \"text\": \"second\"}\n");
  JsonlSource source(in);
  RawRecord record;
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record.user, 1u);
  EXPECT_EQ(record.text, "first message");
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record.user, 2u);
  EXPECT_EQ(record.event_id, 3);
  EXPECT_FALSE(source.Next(record));
  EXPECT_EQ(source.malformed_count(), 1u);
}

TEST(JsonlSourceTest, MissingFileReportsNotOk) {
  JsonlSource source(std::string("/nonexistent/path.jsonl"));
  EXPECT_FALSE(source.ok());
  RawRecord record;
  EXPECT_FALSE(source.Next(record));
}

TEST(TsvSourceTest, ParsesTwoAndThreeColumnForms) {
  std::istringstream in(
      "# comment\n"
      "7\tquake hits city\n"
      "8\t4\tflood warning tonight\n"
      "9\t12:30 update\n"     // second column not an integer -> text
      "badline\n"             // no tab
      "x\ty\n");              // bad user id
  TsvSource source(in);
  RawRecord record;
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record.user, 7u);
  EXPECT_EQ(record.event_id, stream::kBackground);
  EXPECT_EQ(record.text, "quake hits city");
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record.user, 8u);
  EXPECT_EQ(record.event_id, 4);
  EXPECT_EQ(record.text, "flood warning tonight");
  ASSERT_TRUE(source.Next(record));
  EXPECT_EQ(record.user, 9u);
  EXPECT_EQ(record.text, "12:30 update");
  EXPECT_FALSE(source.Next(record));
  EXPECT_EQ(source.malformed_count(), 2u);
}

TEST(GeneratorSourceTest, RendersTokenizerStableText) {
  stream::SyntheticConfig config;
  config.num_messages = 300;
  config.num_users = 60;
  config.background_vocab = 150;
  config.num_events = 2;
  config.num_spurious = 0;
  config.event_duration_min = config.event_duration_max = 150;
  GeneratorSource source(config);

  // Tokenizing the rendered text must give back exactly the original
  // keyword spellings, in order — the round-trip the raw-text path
  // depends on.
  RawRecord record;
  std::size_t count = 0;
  while (source.Next(record)) {
    const stream::Message& message = source.trace().messages[count];
    const std::vector<std::string> tokens = text::Tokenize(record.text);
    ASSERT_EQ(tokens.size(), message.keywords.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      EXPECT_EQ(tokens[i],
                source.trace().dictionary.Spelling(message.keywords[i]));
    }
    ++count;
  }
  EXPECT_EQ(count, source.trace().messages.size());
}

TEST(TextExportTest, JsonlRoundTripsThroughJsonlSource) {
  stream::SyntheticConfig config;
  config.num_messages = 150;
  config.num_users = 40;
  config.background_vocab = 80;
  config.num_events = 1;
  config.num_spurious = 0;
  config.event_duration_min = config.event_duration_max = 75;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);

  std::stringstream buffer;
  ASSERT_TRUE(WriteJsonl(trace, buffer));
  JsonlSource source(buffer);
  RawRecord record;
  for (const stream::Message& message : trace.messages) {
    ASSERT_TRUE(source.Next(record));
    EXPECT_EQ(record.user, message.user);
    EXPECT_EQ(record.event_id, message.event_id);
    EXPECT_EQ(record.text, RenderMessageText(message, trace.dictionary));
  }
  EXPECT_FALSE(source.Next(record));
  EXPECT_EQ(source.malformed_count(), 0u);
}

TEST(TextExportTest, TsvRoundTripsThroughTsvSource) {
  stream::SyntheticConfig config;
  config.num_messages = 150;
  config.num_users = 40;
  config.background_vocab = 80;
  config.num_events = 1;
  config.num_spurious = 0;
  config.event_duration_min = config.event_duration_max = 75;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);

  std::stringstream buffer;
  ASSERT_TRUE(WriteTsv(trace, buffer));
  TsvSource source(buffer);
  RawRecord record;
  for (const stream::Message& message : trace.messages) {
    ASSERT_TRUE(source.Next(record));
    EXPECT_EQ(record.user, message.user);
    EXPECT_EQ(record.event_id, message.event_id);
  }
  EXPECT_FALSE(source.Next(record));
}

// ------------------------------------------------------------ Admission --

TEST(AdmissionTest, EveryPolicyAdmitsBelowCapacity) {
  for (const OverloadPolicy policy :
       {OverloadPolicy::kBlock, OverloadPolicy::kDropTail,
        OverloadPolicy::kFairSample}) {
    AdmissionConfig config;
    config.policy = policy;
    const AdmissionController controller(config);
    for (UserId user = 0; user < 1000; ++user) {
      EXPECT_EQ(controller.Decide(user, /*queue_full=*/false),
                Admission::kAdmit);
    }
  }
}

TEST(AdmissionTest, BlockRetriesAndDropShedsUnderOverload) {
  AdmissionConfig config;
  config.policy = OverloadPolicy::kBlock;
  EXPECT_EQ(AdmissionController(config).Decide(7, true), Admission::kRetry);
  config.policy = OverloadPolicy::kDropTail;
  EXPECT_EQ(AdmissionController(config).Decide(7, true), Admission::kShed);
}

TEST(AdmissionTest, FairSampleIsDeterministicUnderSeed) {
  AdmissionConfig config;
  config.policy = OverloadPolicy::kFairSample;
  config.seed = 1234;
  config.sample_keep_fraction = 0.25;
  const AdmissionController a(config);
  const AdmissionController b(config);
  std::size_t kept = 0;
  for (UserId user = 0; user < 20000; ++user) {
    // Same seed -> identical verdicts, and they match the exposed
    // survivor-set predicate.
    const Admission verdict = a.Decide(user, /*queue_full=*/true);
    EXPECT_EQ(verdict, b.Decide(user, /*queue_full=*/true));
    EXPECT_EQ(verdict == Admission::kRetry, a.InSample(user));
    if (verdict == Admission::kRetry) ++kept;
  }
  // The survivor set tracks the configured fraction.
  EXPECT_NEAR(static_cast<double>(kept) / 20000.0, 0.25, 0.02);

  // A different seed selects a genuinely different survivor set.
  config.seed = 99;
  const AdmissionController c(config);
  std::size_t differing = 0;
  for (UserId user = 0; user < 20000; ++user) {
    if (c.InSample(user) != a.InSample(user)) ++differing;
  }
  EXPECT_GT(differing, 1000u);
}

TEST(AdmissionTest, FullKeepFractionNeverSheds) {
  AdmissionConfig config;
  config.policy = OverloadPolicy::kFairSample;
  config.sample_keep_fraction = 1.0;
  const AdmissionController controller(config);
  for (UserId user = 0; user < 5000; ++user) {
    EXPECT_EQ(controller.Decide(user, /*queue_full=*/true),
              Admission::kRetry);
  }
}

// ------------------------------------------- Concurrent dictionary ------

TEST(ConcurrentDictionaryTest, SeedFromPreservesIdsAndNounFlags) {
  text::KeywordDictionary plain;
  const KeywordId quake = plain.Intern("quake");
  const KeywordId breaking = plain.Intern("breaking");
  plain.SetNoun(breaking, false);

  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(plain);
  EXPECT_EQ(dictionary.size(), plain.size());
  EXPECT_EQ(dictionary.TryLookup("quake"), quake);
  EXPECT_EQ(dictionary.TryLookup("breaking"), breaking);
  EXPECT_EQ(dictionary.TryLookup("absent"), kInvalidKeyword);
  EXPECT_TRUE(dictionary.view().IsNoun(quake));
  EXPECT_FALSE(dictionary.view().IsNoun(breaking));
}

TEST(ConcurrentDictionaryTest, InternIsIdempotent) {
  text::ConcurrentKeywordDictionary dictionary;
  const KeywordId id = dictionary.Intern("storm");
  EXPECT_EQ(dictionary.Intern("storm"), id);
  EXPECT_EQ(dictionary.TryLookup("storm"), id);
  EXPECT_EQ(dictionary.size(), 1u);
}

TEST(ConcurrentDictionaryTest, LookupsRaceSafelyWithInterning) {
  // Readers hammer TryLookup while one writer interns a growing
  // vocabulary through several index resizes; under TSan this is the
  // data-race check for the lock-free read path. A reader may miss a
  // word that is being published, but a hit must carry the word's id.
  text::ConcurrentKeywordDictionary dictionary;
  constexpr int kWords = 2000;
  // snprintf instead of "w" + to_string: sidesteps a gcc-12 -Wrestrict
  // false positive on inlined std::string concatenation.
  const auto word = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "w%d", i);
    return std::string(buf);
  };
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::jthread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&dictionary, &done, &wrong, &word] {
      while (!done.load(std::memory_order_acquire)) {
        for (int i = 0; i < kWords; i += 17) {
          const KeywordId id = dictionary.TryLookup(word(i));
          if (id != kInvalidKeyword && id != static_cast<KeywordId>(i)) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int i = 0; i < kWords; ++i) {
    EXPECT_EQ(dictionary.Intern(word(i)), static_cast<KeywordId>(i));
  }
  done.store(true, std::memory_order_release);
  readers.clear();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(dictionary.size(), static_cast<std::size_t>(kWords));
  for (int i = 0; i < kWords; ++i) {
    EXPECT_EQ(dictionary.TryLookup(word(i)), static_cast<KeywordId>(i));
  }
}

TEST(ConcurrentDictionaryTest, RestoredAndMovedInEntriesAreVisible) {
  text::KeywordDictionary plain;
  for (const char* keyword : {"quake", "storm", "flood"}) {
    plain.Intern(keyword);
  }
  BinaryWriter full;
  plain.SaveState(full);
  BinaryReader full_reader(full.data());
  text::ConcurrentKeywordDictionary restored;
  ASSERT_TRUE(restored.RestoreState(full_reader));
  EXPECT_EQ(restored.TryLookup("storm"), 1u);

  // A delta blob appends past the restored prefix.
  const KeywordId fire = plain.Intern("fire");
  BinaryWriter delta;
  plain.SaveState(delta, fire);
  BinaryReader delta_reader(delta.data());
  ASSERT_TRUE(restored.RestoreState(delta_reader, fire));
  EXPECT_EQ(restored.TryLookup("fire"), fire);
  EXPECT_EQ(restored.TryLookup("quake"), 0u);

  const text::ConcurrentKeywordDictionary adopted(std::move(plain));
  EXPECT_EQ(adopted.TryLookup("flood"), 2u);
  EXPECT_EQ(adopted.TryLookup("fire"), fire);
  EXPECT_EQ(adopted.TryLookup("absent"), kInvalidKeyword);
}

// ------------------------------------------------- Worker transform -----

TEST(TokenizeAndResolveTest, FiltersStopWordsAndFoldsSynonyms) {
  text::SynonymTable synonyms;
  synonyms.AddGroup({"earthquake", "quake", "temblor"});

  IngestConfig config;
  config.synonyms = &synonyms;
  text::ConcurrentKeywordDictionary dictionary;
  const KeywordId known = dictionary.Intern("earthquake");

  std::uint64_t raw_tokens = 0;
  const std::vector<ResolvedToken> tokens = TokenizeAndResolve(
      "The quake was a massive temblor", config, dictionary, &raw_tokens);
  // "a" is below the tokenizer's min length; the other five tokens are
  // counted pre-filter.
  EXPECT_EQ(raw_tokens, 5u);
  // "the", "was", "a" are stop words; both synonyms fold to the known id.
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].id, known);
  EXPECT_EQ(tokens[1].id, kInvalidKeyword);
  EXPECT_EQ(tokens[1].spelling, "massive");
  EXPECT_EQ(tokens[2].id, known);
}

// ------------------------------------------------- Quantum assembler ----

TEST(QuantumAssemblerTest, CutsQuantaAtDeltaAndFlushesPartial) {
  std::vector<std::size_t> sizes;
  std::vector<QuantumIndex> indices;
  QuantumAssembler assembler(
      4,
      [&](const stream::Quantum& quantum) {
        sizes.push_back(quantum.messages.size());
        indices.push_back(quantum.index);
        detect::QuantumReport report;
        report.quantum = quantum.index;
        return report;
      },
      nullptr, /*flush_partial=*/true);

  for (int i = 0; i < 10; ++i) {
    stream::Message message;
    message.seq = static_cast<std::uint64_t>(i);
    assembler.Push(std::move(message));
  }
  assembler.Finish();
  EXPECT_EQ(assembler.quanta(), 3u);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2}));
  EXPECT_EQ(indices, (std::vector<QuantumIndex>{0, 1, 2}));
  ASSERT_EQ(assembler.reports().size(), 3u);
  EXPECT_EQ(assembler.reports()[2].quantum, 2);
}

TEST(QuantumAssemblerTest, NoFlushDropsTrailingPartial) {
  std::size_t processed = 0;
  QuantumAssembler assembler(
      4,
      [&](const stream::Quantum&) {
        ++processed;
        return detect::QuantumReport{};
      },
      nullptr, /*flush_partial=*/false);
  for (int i = 0; i < 6; ++i) assembler.Push(stream::Message{});
  assembler.Finish();
  EXPECT_EQ(processed, 1u);
}

TEST(QuantumAssemblerTest, ReportCallbackSeesEveryQuantum) {
  std::vector<QuantumIndex> seen;
  QuantumAssembler assembler(
      2,
      [](const stream::Quantum& quantum) {
        detect::QuantumReport report;
        report.quantum = quantum.index;
        return report;
      },
      [&seen](const detect::QuantumReport& report) {
        seen.push_back(report.quantum);
      });
  for (int i = 0; i < 5; ++i) assembler.Push(stream::Message{});
  assembler.Finish();
  EXPECT_EQ(seen, (std::vector<QuantumIndex>{0, 1, 2}));
}

}  // namespace
}  // namespace scprt::ingest
