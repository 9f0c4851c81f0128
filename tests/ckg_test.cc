// Tests for akg/ckg.h — the full windowed co-occurrence graph.

#include <gtest/gtest.h>

#include "akg/akg_builder.h"
#include "akg/ckg.h"
#include "stream/synthetic.h"
#include "stream/quantizer.h"

namespace scprt::akg {
namespace {

stream::Quantum MakeQuantum(
    QuantumIndex index,
    std::initializer_list<std::pair<UserId, std::vector<KeywordId>>> msgs) {
  stream::Quantum q;
  q.index = index;
  for (const auto& [user, keywords] : msgs) {
    stream::Message m;
    m.user = user;
    m.keywords = keywords;
    q.messages.push_back(std::move(m));
  }
  return q;
}

TEST(WindowedCkgTest, EdgesPerUserPerQuantum) {
  WindowedCkg ckg(3);
  ckg.PushQuantum(MakeQuantum(0, {
      {1, {10, 11}},
      {2, {11, 12}},
  }));
  EXPECT_TRUE(ckg.HasEdge(10, 11));
  EXPECT_TRUE(ckg.HasEdge(11, 12));
  EXPECT_FALSE(ckg.HasEdge(10, 12));  // different users
  EXPECT_EQ(ckg.edge_count(), 2u);
  EXPECT_EQ(ckg.node_count(), 3u);
}

TEST(WindowedCkgTest, UserKeywordsSpanMessagesWithinQuantum) {
  // Spatial correlation is per user per quantum, not per message
  // (Section 3.2: "keywords from a user may be spread over multiple
  // messages albeit within a given quantum").
  WindowedCkg ckg(3);
  ckg.PushQuantum(MakeQuantum(0, {
      {1, {10}},
      {1, {11}},  // same user, second message
  }));
  EXPECT_TRUE(ckg.HasEdge(10, 11));
}

TEST(WindowedCkgTest, WindowExpiry) {
  WindowedCkg ckg(2);
  ckg.PushQuantum(MakeQuantum(0, {{1, {10, 11}}}));
  ckg.PushQuantum(MakeQuantum(1, {{2, {20, 21}}}));
  EXPECT_TRUE(ckg.warm());
  EXPECT_TRUE(ckg.HasEdge(10, 11));
  ckg.PushQuantum(MakeQuantum(2, {{3, {30, 31}}}));
  EXPECT_FALSE(ckg.HasEdge(10, 11));  // quantum 0 expired
  EXPECT_TRUE(ckg.HasEdge(20, 21));
  EXPECT_EQ(ckg.node_count(), 4u);
}

TEST(WindowedCkgTest, MultiplicitySurvivesPartialExpiry) {
  WindowedCkg ckg(2);
  ckg.PushQuantum(MakeQuantum(0, {{1, {10, 11}}}));
  ckg.PushQuantum(MakeQuantum(1, {{2, {10, 11}}}));
  ckg.PushQuantum(MakeQuantum(2, {{3, {99, 98}}}));
  // The (10,11) edge from quantum 1 is still in the window.
  EXPECT_TRUE(ckg.HasEdge(10, 11));
  ckg.PushQuantum(MakeQuantum(3, {{4, {99, 97}}}));
  EXPECT_FALSE(ckg.HasEdge(10, 11));
}

TEST(WindowedCkgTest, AkgIsSmallSubsetOfCkgOnRealisticTrace) {
  // The Section 7.4 claim as a property: the AKG is a small fraction of
  // the CKG on a realistic workload.
  stream::SyntheticConfig config;
  config.seed = 99;
  config.num_messages = 15'000;
  config.num_events = 5;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);

  AkgConfig akg_config;
  akg_config.window_length = 10;
  cluster::ScpMaintainer maintainer;
  AkgBuilder builder(akg_config, maintainer);
  WindowedCkg ckg(10);

  double ratio_sum = 0.0;
  std::size_t samples = 0;
  for (const stream::Quantum& q :
       stream::SplitIntoQuanta(trace.messages, 160)) {
    maintainer.Apply(builder.ProcessQuantum(q));
    ckg.PushQuantum(q);
    if (!ckg.warm() || ckg.edge_count() == 0) continue;
    ratio_sum += static_cast<double>(builder.last_stats().akg_edges) /
                 static_cast<double>(ckg.edge_count());
    ++samples;
  }
  ASSERT_GT(samples, 10u);
  EXPECT_LT(ratio_sum / static_cast<double>(samples), 0.10);
}

}  // namespace
}  // namespace scprt::akg
