// Tests for akg/: id sets, node-state automaton, Min-Hash, AKG builder.

#include <unordered_set>

#include <gtest/gtest.h>

#include "akg/akg_builder.h"
#include "akg/correlation.h"
#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "akg/node_state.h"
#include "common/random.h"

namespace scprt::akg {
namespace {

using graph::Edge;

// --- UserIdSets ---

TEST(UserIdSetsTest, QuantumSupportCountsDistinctUsers) {
  UserIdSets sets(3);
  sets.BeginQuantum();
  sets.Add(1, 100);
  sets.Add(1, 100);  // duplicate collapses
  sets.Add(1, 101);
  sets.Add(2, 100);
  sets.EndQuantum();
  EXPECT_EQ(sets.QuantumSupport(1), 2u);
  EXPECT_EQ(sets.QuantumSupport(2), 1u);
  EXPECT_EQ(sets.QuantumSupport(3), 0u);
}

TEST(UserIdSetsTest, WindowAggregatesAcrossQuanta) {
  UserIdSets sets(3);
  for (int q = 0; q < 3; ++q) {
    sets.BeginQuantum();
    sets.Add(1, static_cast<UserId>(100 + q));
    sets.EndQuantum();
  }
  EXPECT_EQ(sets.WindowSupport(1), 3u);
  // Fourth quantum evicts the first.
  sets.BeginQuantum();
  sets.Add(1, 200);
  sets.EndQuantum();
  EXPECT_EQ(sets.WindowSupport(1), 3u);  // {101, 102, 200}
  auto users = sets.WindowUsers(1);
  std::unordered_set<UserId> user_set(users.begin(), users.end());
  EXPECT_FALSE(user_set.count(100));
  EXPECT_TRUE(user_set.count(200));
}

TEST(UserIdSetsTest, ExpiryRemovesKeywordEntirely) {
  UserIdSets sets(2);
  sets.BeginQuantum();
  sets.Add(7, 1);
  sets.EndQuantum();
  EXPECT_EQ(sets.active_keywords(), 1u);
  for (int q = 0; q < 2; ++q) {
    sets.BeginQuantum();
    sets.Add(8, 2);
    sets.EndQuantum();
  }
  EXPECT_EQ(sets.WindowSupport(7), 0u);
  EXPECT_EQ(sets.active_keywords(), 1u);
}

TEST(UserIdSetsTest, UserInMultipleQuantaSurvivesPartialExpiry) {
  UserIdSets sets(2);
  for (int q = 0; q < 2; ++q) {
    sets.BeginQuantum();
    sets.Add(1, 42);
    sets.EndQuantum();
  }
  // User 42 appeared in both quanta; evicting the first keeps them.
  sets.BeginQuantum();
  sets.EndQuantum();
  EXPECT_EQ(sets.WindowSupport(1), 1u);
  sets.BeginQuantum();
  sets.EndQuantum();
  EXPECT_EQ(sets.WindowSupport(1), 0u);
}

TEST(UserIdSetsTest, ExactJaccard) {
  UserIdSets sets(5);
  sets.BeginQuantum();
  for (UserId u : {1, 2, 3, 4}) sets.Add(10, u);
  for (UserId u : {3, 4, 5, 6}) sets.Add(20, u);
  sets.EndQuantum();
  // |{3,4}| / |{1..6}| = 2/6.
  EXPECT_NEAR(sets.Jaccard(10, 20), 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(sets.Jaccard(10, 99), 0.0);
  EXPECT_DOUBLE_EQ(sets.Jaccard(10, 10), 1.0);
}

// --- NodeStateAutomaton ---

std::vector<std::pair<KeywordId, std::uint32_t>> Counts(
    std::initializer_list<std::pair<KeywordId, std::uint32_t>> list) {
  return {list.begin(), list.end()};
}

const std::function<bool(KeywordId)> kNeverInCluster = [](KeywordId) {
  return false;
};

TEST(NodeStateTest, EntersOnBurst) {
  NodeStateAutomaton automaton(4, 3);
  auto update =
      automaton.ProcessQuantum(0, Counts({{1, 5}, {2, 3}}), kNeverInCluster);
  EXPECT_EQ(update.entered, std::vector<KeywordId>{1});
  EXPECT_EQ(update.bursty, std::vector<KeywordId>{1});
  EXPECT_TRUE(update.seen_in_akg.empty());
  EXPECT_TRUE(automaton.InAkg(1));
  EXPECT_FALSE(automaton.InAkg(2));
}

TEST(NodeStateTest, SeenInAkgWithoutBurst) {
  NodeStateAutomaton automaton(4, 3);
  automaton.ProcessQuantum(0, Counts({{1, 5}}), kNeverInCluster);
  auto update =
      automaton.ProcessQuantum(1, Counts({{1, 2}}), kNeverInCluster);
  EXPECT_TRUE(update.entered.empty());
  EXPECT_TRUE(update.bursty.empty());
  EXPECT_EQ(update.seen_in_akg, std::vector<KeywordId>{1});
  EXPECT_TRUE(automaton.InAkg(1));
}

TEST(NodeStateTest, StaleEviction) {
  NodeStateAutomaton automaton(4, 2);
  automaton.ProcessQuantum(0, Counts({{1, 5}}), kNeverInCluster);
  automaton.ProcessQuantum(1, Counts({}), kNeverInCluster);
  auto update = automaton.ProcessQuantum(2, Counts({}), kNeverInCluster);
  EXPECT_EQ(update.removed, std::vector<KeywordId>{1});
  EXPECT_FALSE(automaton.InAkg(1));
}

TEST(NodeStateTest, ClusterMembershipRetains) {
  NodeStateAutomaton automaton(4, 2);
  const std::function<bool(KeywordId)> in_cluster = [](KeywordId k) {
    return k == 1;
  };
  automaton.ProcessQuantum(0, Counts({{1, 5}}), in_cluster);
  // Keyword 1 keeps occurring below threshold: faded but in cluster.
  for (QuantumIndex q = 1; q <= 5; ++q) {
    auto update =
        automaton.ProcessQuantum(q, Counts({{1, 1}}), in_cluster);
    EXPECT_TRUE(update.removed.empty()) << "quantum " << q;
  }
  EXPECT_TRUE(automaton.InAkg(1));
}

TEST(NodeStateTest, FadedEvictionWithoutCluster) {
  NodeStateAutomaton automaton(4, 2);
  automaton.ProcessQuantum(0, Counts({{1, 5}}), kNeverInCluster);
  // Keeps occurring (never stale) but below threshold and clusterless:
  // evicted once the burst horizon passes.
  automaton.ProcessQuantum(1, Counts({{1, 1}}), kNeverInCluster);
  automaton.ProcessQuantum(2, Counts({{1, 1}}), kNeverInCluster);
  auto update = automaton.ProcessQuantum(3, Counts({{1, 1}}), kNeverInCluster);
  EXPECT_FALSE(automaton.InAkg(1));
  // Removed in one of the sweeps.
  (void)update;
}

TEST(NodeStateTest, ReentryAfterEviction) {
  NodeStateAutomaton automaton(4, 2);
  automaton.ProcessQuantum(0, Counts({{1, 5}}), kNeverInCluster);
  automaton.ProcessQuantum(1, Counts({}), kNeverInCluster);
  automaton.ProcessQuantum(2, Counts({}), kNeverInCluster);
  EXPECT_FALSE(automaton.InAkg(1));
  auto update = automaton.ProcessQuantum(3, Counts({{1, 6}}), kNeverInCluster);
  EXPECT_EQ(update.entered, std::vector<KeywordId>{1});
  EXPECT_TRUE(automaton.InAkg(1));
}

// --- MinHash ---

// The paper's unweighted signature of a distinct-user set: the unweighted
// WeightedMinHasher sketch's values.
MinHashSignature Signature(std::size_t p, std::uint64_t seed,
                           const std::vector<UserId>& users) {
  const WeightedMinHasher hasher(p, seed, /*weighted=*/false);
  return WeightedMinHasher::Values(hasher.QuantumSketch(0, users, {}));
}

TEST(MinHashTest, SignatureIsBottomP) {
  std::vector<UserId> users = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto sig = Signature(3, 42, users);
  ASSERT_EQ(sig.size(), 3u);
  EXPECT_TRUE(std::is_sorted(sig.begin(), sig.end()));
  // Must be the three smallest among all hashed values.
  SeededHash h(42);
  std::vector<std::uint64_t> all;
  for (UserId u : users) all.push_back(h(u));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(sig[0], all[0]);
  EXPECT_EQ(sig[2], all[2]);
}

TEST(MinHashTest, SmallSetSignature) {
  EXPECT_EQ(Signature(5, 42, {7}).size(), 1u);
  EXPECT_TRUE(Signature(5, 42, {}).empty());
}

TEST(MinHashTest, SmallSetEstimateIsExact) {
  // When both signatures are complete sets (|A|, |B| < p), the bottom-p of
  // the union is the whole union and the estimate is the exact Jaccard —
  // the `shared/taken` ratio must not truncate the union sample early.
  const auto a = Signature(8, 1234, {1, 2, 3});
  const auto b = Signature(8, 1234, {2, 3, 4, 5});
  // |A n B| = 2, |A u B| = 5.
  EXPECT_DOUBLE_EQ(EstimateJaccard(a, b, 8), 2.0 / 5.0);
  const auto lone = Signature(8, 1234, {77});
  EXPECT_DOUBLE_EQ(EstimateJaccard(lone, lone, 8), 1.0);
  EXPECT_DOUBLE_EQ(EstimateJaccard(a, Signature(8, 1234, {9}), 8), 0.0);
}

TEST(MinHashTest, IdenticalSetsShareAllValues) {
  std::vector<UserId> users = {10, 20, 30, 40, 50};
  const auto a = Signature(4, 7, users);
  const auto b = Signature(4, 7, users);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(SharesValue(a, b));
  EXPECT_DOUBLE_EQ(EstimateJaccard(a, b, 4), 1.0);
}

TEST(MinHashTest, DisjointSetsShareNothing) {
  const auto a = Signature(4, 7, {1, 2, 3, 4});
  const auto b = Signature(4, 7, {100, 200, 300, 400});
  EXPECT_FALSE(SharesValue(a, b));
}

TEST(MinHashTest, EstimateTracksExactJaccard) {
  // Property: averaged over many random set pairs, the bottom-p estimate is
  // close to the exact Jaccard.
  Rng rng(99);
  const std::size_t p = 8;
  double error_sum = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = rng.Next();
    std::vector<UserId> a, b;
    const int shared = 10 + static_cast<int>(rng.UniformInt(30));
    const int only_a = 5 + static_cast<int>(rng.UniformInt(40));
    const int only_b = 5 + static_cast<int>(rng.UniformInt(40));
    UserId next = 0;
    for (int i = 0; i < shared; ++i) {
      a.push_back(next);
      b.push_back(next);
      ++next;
    }
    for (int i = 0; i < only_a; ++i) a.push_back(next++);
    for (int i = 0; i < only_b; ++i) b.push_back(next++);
    const double exact =
        static_cast<double>(shared) /
        static_cast<double>(shared + only_a + only_b);
    const double estimate =
        EstimateJaccard(Signature(p, seed, a), Signature(p, seed, b), p);
    error_sum += estimate - exact;
  }
  EXPECT_NEAR(error_sum / trials, 0.0, 0.03);  // approximately unbiased
}

TEST(MinHashTest, DefaultSizeFollowsPaperFormula) {
  // min(ceil(theta/2), ceil(1/gamma)) clamped to [2, 16]. Both terms round
  // UP: the paper's real-valued formula is a resolution floor, so an odd
  // theta takes the extra slot rather than dropping one.
  struct Row {
    std::uint32_t theta;
    double gamma;
    std::size_t expected;
  };
  const Row rows[] = {
      {4, 0.20, 2},     // min(2, 5)
      {16, 0.20, 5},    // min(8, 5)
      {2, 0.5, 2},      // clamp up from 1
      {100, 0.01, 16},  // clamp down
      {5, 0.20, 3},     // ceil(5/2) = 3, not floor = 2
      {3, 0.1, 2},      // ceil(3/2) = 2
      {7, 0.25, 4},     // min(ceil(7/2), 4) = 4
      {9, 0.30, 4},     // ceil(1/0.3) = 4 < ceil(9/2) = 5
  };
  for (const Row& row : rows) {
    EXPECT_EQ(DefaultMinHashSize(row.theta, row.gamma), row.expected)
        << "theta=" << row.theta << " gamma=" << row.gamma;
  }
}

// --- AkgBuilder end-to-end on handcrafted quanta ---

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

AkgConfig TestConfig() {
  AkgConfig config;
  config.high_state_threshold = 3;
  config.ec_threshold = 0.5;
  config.window_length = 3;
  config.ec_mode = EcMode::kExact;
  return config;
}

TEST(AkgBuilderTest, CorrelatedBurstyKeywordsGetEdge) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  // Keywords 1 and 2 used together by users 1..4.
  const auto delta = builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}}, {4, {1, 2}},
  }));
  EXPECT_EQ(delta.nodes_added.size(), 2u);
  ASSERT_EQ(delta.edges_added.size(), 1u);
  EXPECT_EQ(delta.edges_added[0].first, Edge::Of(1, 2));
  EXPECT_DOUBLE_EQ(delta.edges_added[0].second, 1.0);
  EXPECT_DOUBLE_EQ(builder.EdgeCorrelation(Edge::Of(1, 2)), 1.0);
  EXPECT_EQ(builder.NodeWeight(1), 4u);
}

TEST(AkgBuilderTest, WeakCorrelationNoEdge) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  // Both bursty but different user sets: Jaccard 0 < 0.5.
  const auto delta = builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1}}, {2, {1}}, {3, {1}},
      {11, {2}}, {12, {2}}, {13, {2}},
  }));
  EXPECT_EQ(delta.nodes_added.size(), 2u);
  EXPECT_TRUE(delta.edges_added.empty());
}

TEST(AkgBuilderTest, NonBurstyKeywordNeverEnters) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  const auto delta = builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1}}, {2, {1}},  // only 2 users < theta=3
  }));
  EXPECT_TRUE(delta.nodes_added.empty());
  EXPECT_FALSE(builder.node_state().InAkg(1));
}

TEST(AkgBuilderTest, EdgeDroppedWhenCorrelationDecays) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}},
  }));
  ASSERT_TRUE(builder.akg().HasEdge(1, 2));
  // Subsequent quanta: both keywords keep occurring but used by disjoint
  // user crowds; window Jaccard decays below 0.5.
  for (QuantumIndex q = 1; q <= 2; ++q) {
    builder.ProcessQuantum(MakeQuantum(q, {
        {static_cast<UserId>(20 + q), {1}},
        {static_cast<UserId>(21 + q * 10), {1}},
        {static_cast<UserId>(22 + q * 10), {1}},
        {static_cast<UserId>(60 + q), {2}},
        {static_cast<UserId>(61 + q * 10), {2}},
        {static_cast<UserId>(62 + q * 10), {2}},
    }));
  }
  EXPECT_FALSE(builder.akg().HasEdge(1, 2));
}

TEST(AkgBuilderTest, StaleNodeEvictedWithEdges) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}},
  }));
  ASSERT_EQ(builder.akg().node_count(), 2u);
  bool removed_nodes = false;
  for (QuantumIndex q = 1; q <= 4; ++q) {
    const auto delta = builder.ProcessQuantum(MakeQuantum(q, {
        {static_cast<UserId>(q), {9}},
    }));
    removed_nodes |= !delta.nodes_removed.empty();
  }
  EXPECT_TRUE(removed_nodes);
  EXPECT_EQ(builder.akg().node_count(), 0u);
  EXPECT_EQ(builder.akg().edge_count(), 0u);
}

TEST(AkgBuilderTest, MinHashScreenAgreesWithExactOnStrongPairs) {
  AkgConfig exact = TestConfig();
  AkgConfig screened = TestConfig();
  screened.ec_mode = EcMode::kMinHashScreenExactVerify;
  screened.minhash_size = 8;
  AkgBuilder builder_exact(exact, [](KeywordId) { return false; });
  AkgBuilder builder_screen(screened, [](KeywordId) { return false; });
  const auto quantum = MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}}, {4, {1, 2}}, {5, {1, 2}},
      {6, {3}}, {7, {3}}, {8, {3}},
  });
  const auto d1 = builder_exact.ProcessQuantum(quantum);
  const auto d2 = builder_screen.ProcessQuantum(quantum);
  ASSERT_EQ(d1.edges_added.size(), 1u);
  ASSERT_EQ(d2.edges_added.size(), 1u);  // identical sets always share minhash
  EXPECT_EQ(d1.edges_added[0].first, d2.edges_added[0].first);
}

TEST(AkgBuilderTest, StatsReflectSizes) {
  AkgBuilder builder(TestConfig(), [](KeywordId) { return false; });
  builder.ProcessQuantum(MakeQuantum(0, {
      {1, {1, 2, 5}}, {2, {1, 2}}, {3, {1, 2}}, {4, {7}},
  }));
  const auto& stats = builder.last_stats();
  EXPECT_EQ(stats.quantum_keywords, 4u);  // {1, 2, 5, 7}
  EXPECT_EQ(stats.bursty, 2u);            // {1, 2}
  EXPECT_EQ(stats.akg_nodes, 2u);
  EXPECT_EQ(stats.akg_edges, 1u);
  EXPECT_GE(stats.ckg_nodes, 4u);
}

}  // namespace
}  // namespace scprt::akg
