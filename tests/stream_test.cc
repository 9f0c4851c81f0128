// Tests for stream/: quantizer, sliding window, event profiles, synthetic
// generator, trace serialization.

#include <limits>
#include <sstream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "stream/event_script.h"
#include "stream/message.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "stream/trace.h"

namespace scprt::stream {
namespace {

Message MakeMessage(std::uint64_t seq, UserId user = 1) {
  Message m;
  m.seq = seq;
  m.user = user;
  m.keywords = {static_cast<KeywordId>(seq % 7)};
  return m;
}

TEST(QuantizerTest, EmitsEveryDeltaMessages) {
  Quantizer q(3);
  EXPECT_FALSE(q.Push(MakeMessage(0)).has_value());
  EXPECT_FALSE(q.Push(MakeMessage(1)).has_value());
  auto quantum = q.Push(MakeMessage(2));
  ASSERT_TRUE(quantum.has_value());
  EXPECT_EQ(quantum->index, 0);
  EXPECT_EQ(quantum->messages.size(), 3u);
  auto q2 = q.Push(MakeMessage(3));
  EXPECT_FALSE(q2.has_value());
}

TEST(QuantizerTest, FlushEmitsPartial) {
  Quantizer q(4);
  q.Push(MakeMessage(0));
  q.Push(MakeMessage(1));
  auto partial = q.Flush();
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->messages.size(), 2u);
  EXPECT_FALSE(q.Flush().has_value());
}

TEST(QuantizerTest, RefusesToCloseAQuantumAtTheTopIndex) {
  // The top index leaves the clock no successor: the quantum one short of
  // it closes, and the next one aborts in Push and in Flush alike.
  constexpr QuantumIndex kTop = std::numeric_limits<QuantumIndex>::max();
  Quantizer q(2);
  q.SetNextIndex(kTop - 1);
  q.Push(MakeMessage(0));
  auto last = q.Push(MakeMessage(1));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->index, kTop - 1);
  EXPECT_EQ(q.next_index(), kTop);
  q.Push(MakeMessage(2));
  EXPECT_DEATH(q.Push(MakeMessage(3)), "next_index_ <");
  EXPECT_DEATH(q.Flush(), "next_index_ <");
  EXPECT_EQ(q.next_index(), kTop);
}

TEST(QuantizerTest, SplitIntoQuanta) {
  std::vector<Message> trace;
  for (std::uint64_t i = 0; i < 10; ++i) trace.push_back(MakeMessage(i));
  auto quanta = SplitIntoQuanta(trace, 4);
  EXPECT_EQ(quanta.size(), 2u);  // partial dropped by default
  quanta = SplitIntoQuanta(trace, 4, /*keep_partial=*/true);
  ASSERT_EQ(quanta.size(), 3u);
  EXPECT_EQ(quanta[2].messages.size(), 2u);
  EXPECT_EQ(quanta[1].index, 1);
}

TEST(EventProfileTest, TrapezoidShape) {
  PlantedEvent e;
  e.duration = 100;
  e.shape = EventShape::kTrapezoid;
  EXPECT_DOUBLE_EQ(e.IntensityAt(0), 0.0);
  EXPECT_NEAR(e.IntensityAt(12), 0.48, 1e-9);
  EXPECT_DOUBLE_EQ(e.IntensityAt(50), 1.0);   // plateau
  EXPECT_GT(e.IntensityAt(80), 0.0);          // wind-down
  EXPECT_LT(e.IntensityAt(95), e.IntensityAt(80));
  EXPECT_DOUBLE_EQ(e.IntensityAt(100), 0.0);  // past the end
  EXPECT_DOUBLE_EQ(e.IntensityAt(1000), 0.0);
}

TEST(EventProfileTest, BurstThenDie) {
  PlantedEvent e;
  e.duration = 100;
  e.shape = EventShape::kBurstThenDie;
  EXPECT_DOUBLE_EQ(e.IntensityAt(0), 1.0);
  EXPECT_DOUBLE_EQ(e.IntensityAt(24), 1.0);
  EXPECT_DOUBLE_EQ(e.IntensityAt(25), 0.0);
  EXPECT_DOUBLE_EQ(e.IntensityAt(99), 0.0);
}

TEST(EventScriptTest, RealEventCountExcludesSpurious) {
  EventScript script;
  script.events.resize(3);
  script.events[0].id = 0;
  script.events[1].id = 1;
  script.events[1].spurious = true;
  script.events[2].id = 2;
  EXPECT_EQ(script.real_event_count(), 2u);
  EXPECT_NE(script.Find(1), nullptr);
  EXPECT_EQ(script.Find(7), nullptr);
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticConfig config;
  config.num_messages = 5000;
  const SyntheticTrace a = GenerateSyntheticTrace(config);
  const SyntheticTrace b = GenerateSyntheticTrace(config);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].user, b.messages[i].user);
    EXPECT_EQ(a.messages[i].keywords, b.messages[i].keywords);
    EXPECT_EQ(a.messages[i].event_id, b.messages[i].event_id);
  }
}

TEST(SyntheticTest, EventMessagesUseEventKeywords) {
  SyntheticConfig config;
  config.num_messages = 20000;
  const SyntheticTrace trace = GenerateSyntheticTrace(config);
  std::size_t event_messages = 0;
  for (const Message& m : trace.messages) {
    if (m.event_id == kBackground) continue;
    ++event_messages;
    const PlantedEvent* event = trace.script.Find(m.event_id);
    ASSERT_NE(event, nullptr);
    std::unordered_set<KeywordId> allowed(event->keywords.begin(),
                                          event->keywords.end());
    for (KeywordId k : event->late_keywords) allowed.insert(k);
    std::size_t from_event = 0;
    for (KeywordId k : m.keywords) from_event += allowed.count(k);
    // Every event message carries >= 2 event keywords (spatial correlation).
    EXPECT_GE(from_event, 2u) << "message " << m.seq;
  }
  EXPECT_GT(event_messages, 100u);
}

TEST(SyntheticTest, EventMessagesRespectLifetime) {
  SyntheticConfig config;
  config.num_messages = 30000;
  const SyntheticTrace trace = GenerateSyntheticTrace(config);
  for (const Message& m : trace.messages) {
    if (m.event_id == kBackground) continue;
    const PlantedEvent* event = trace.script.Find(m.event_id);
    ASSERT_NE(event, nullptr);
    EXPECT_GE(m.seq, event->start_seq);
    EXPECT_LT(m.seq, event->start_seq + event->duration);
  }
}

TEST(SyntheticTest, EventUsersComeFromPool) {
  SyntheticConfig config;
  config.num_messages = 20000;
  const SyntheticTrace trace = GenerateSyntheticTrace(config);
  for (const Message& m : trace.messages) {
    if (m.event_id == kBackground) continue;
    const PlantedEvent* event = trace.script.Find(m.event_id);
    const auto& pool = event->user_pool;
    EXPECT_NE(std::find(pool.begin(), pool.end(), m.user), pool.end());
  }
}

TEST(SyntheticTest, EsPresetHasHigherEventDensity) {
  const SyntheticTrace tw = GenerateSyntheticTrace(TimeWindowPreset(1));
  const SyntheticTrace es = GenerateSyntheticTrace(EventSpecificPreset(1));
  auto density = [](const SyntheticTrace& t) {
    std::size_t event_msgs = 0;
    for (const Message& m : t.messages) {
      event_msgs += (m.event_id != kBackground);
    }
    return static_cast<double>(event_msgs) /
           static_cast<double>(t.messages.size());
  };
  EXPECT_GT(density(es), 1.5 * density(tw));
}

TEST(SyntheticTest, LateKeywordsAppearOnlyAfterEvolution) {
  SyntheticConfig config;
  config.num_messages = 30000;
  const SyntheticTrace trace = GenerateSyntheticTrace(config);
  for (const Message& m : trace.messages) {
    if (m.event_id == kBackground) continue;
    const PlantedEvent* event = trace.script.Find(m.event_id);
    std::unordered_set<KeywordId> late(event->late_keywords.begin(),
                                       event->late_keywords.end());
    for (KeywordId k : m.keywords) {
      if (late.count(k)) {
        EXPECT_GE(m.seq - event->start_seq, event->evolution_offset);
      }
    }
  }
}

TEST(SyntheticTest, NounFlagsOnEventKeywords) {
  SyntheticConfig config;
  config.num_messages = 1000;
  const SyntheticTrace trace = GenerateSyntheticTrace(config);
  for (const PlantedEvent& e : trace.script.events) {
    std::size_t nouns = 0;
    for (KeywordId k : e.keywords) nouns += trace.dictionary.IsNoun(k);
    EXPECT_GE(nouns, e.keywords.size() - 1);  // exactly one modifier
    EXPECT_LT(nouns, e.keywords.size());
  }
}

TEST(TraceIoTest, RoundTrip) {
  SyntheticConfig config;
  config.num_messages = 2000;
  config.num_events = 3;
  config.num_spurious = 1;
  const SyntheticTrace original = GenerateSyntheticTrace(config);

  std::stringstream buffer;
  ASSERT_TRUE(WriteTrace(original, buffer));

  SyntheticTrace loaded;
  ASSERT_TRUE(ReadTrace(buffer, loaded));
  ASSERT_EQ(loaded.messages.size(), original.messages.size());
  for (std::size_t i = 0; i < loaded.messages.size(); ++i) {
    EXPECT_EQ(loaded.messages[i].seq, original.messages[i].seq);
    EXPECT_EQ(loaded.messages[i].user, original.messages[i].user);
    EXPECT_EQ(loaded.messages[i].event_id, original.messages[i].event_id);
    EXPECT_EQ(loaded.messages[i].keywords, original.messages[i].keywords);
  }
  ASSERT_EQ(loaded.script.events.size(), original.script.events.size());
  for (std::size_t i = 0; i < loaded.script.events.size(); ++i) {
    const PlantedEvent& a = loaded.script.events[i];
    const PlantedEvent& b = original.script.events[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.spurious, b.spurious);
    EXPECT_EQ(a.start_seq, b.start_seq);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.keywords, b.keywords);
    EXPECT_EQ(a.late_keywords, b.late_keywords);
    EXPECT_EQ(a.headline, b.headline);
  }
  ASSERT_EQ(loaded.dictionary.size(), original.dictionary.size());
  for (KeywordId k = 0; k < loaded.dictionary.size(); ++k) {
    EXPECT_EQ(loaded.dictionary.Spelling(k), original.dictionary.Spelling(k));
    EXPECT_EQ(loaded.dictionary.IsNoun(k), original.dictionary.IsNoun(k));
  }
}

TEST(TraceIoTest, RejectsGarbage) {
  std::stringstream buffer("not-a-trace 1\n");
  SyntheticTrace trace;
  EXPECT_FALSE(ReadTrace(buffer, trace));
}

}  // namespace
}  // namespace scprt::stream
