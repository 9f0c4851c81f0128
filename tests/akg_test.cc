// Tests for akg/: id sets, node-state automaton, Min-Hash, AKG builder.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "akg/akg_builder.h"
#include "akg/correlation.h"
#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "akg/node_state.h"
#include "akg/quantum_aggregate.h"
#include "cluster/maintenance.h"
#include "common/binary_io.h"
#include "common/hash.h"
#include "common/random.h"
#include "obs/registry.h"

namespace scprt::akg {
namespace {

using graph::Edge;

// --- UserIdSets ---

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

// Ingests one quantum through its canonical aggregate (duplicate
// (keyword, user) occurrences collapse there).
void Ingest(UserIdSets& sets, const stream::Quantum& quantum) {
  sets.IngestAggregate(AggregateQuantum(quantum));
}

// The window id set as a vector, for whole-set comparisons.
std::vector<UserId> Users(const UserIdSets& sets, KeywordId keyword) {
  const std::span<const UserId> users = sets.WindowUsers(keyword);
  return {users.begin(), users.end()};
}

TEST(UserIdSetsTest, QuantumSupportCountsDistinctUsers) {
  const QuantumAggregate aggregate = AggregateQuantum(
      MakeQuantum(0, {{100, {1}}, {100, {1, 2}}, {101, {1}}}));
  // The keyword runs: each keyword's distinct users this quantum (the node
  // automaton's input).
  EXPECT_EQ(KeywordCounts(aggregate),
            (std::vector<std::pair<KeywordId, std::uint32_t>>{{1, 2}, {2, 1}}));
  UserIdSets sets(3);
  sets.IngestAggregate(aggregate);
  EXPECT_EQ(Users(sets, 1), (std::vector<UserId>{100, 101}));
  EXPECT_EQ(Users(sets, 2), (std::vector<UserId>{100}));
}

TEST(UserIdSetsTest, WindowAggregatesAcrossQuanta) {
  UserIdSets sets(3);
  for (int q = 0; q < 3; ++q) {
    Ingest(sets, MakeQuantum(q, {{static_cast<UserId>(102 - q), {1}}}));
  }
  EXPECT_EQ(sets.WindowSupport(1), 3u);
  // Fourth quantum evicts the first.
  Ingest(sets, MakeQuantum(3, {{101, {1}}, {200, {1}}}));
  EXPECT_EQ(Users(sets, 1), (std::vector<UserId>{100, 101, 200}));
}

TEST(UserIdSetsTest, ExpiryRemovesKeywordEntirely) {
  UserIdSets sets(2);
  Ingest(sets, MakeQuantum(0, {{1, {7}}}));
  EXPECT_EQ(sets.active_keywords(), 1u);
  for (int q = 1; q <= 2; ++q) Ingest(sets, MakeQuantum(q, {{2, {8}}}));
  EXPECT_EQ(sets.WindowSupport(7), 0u);
  EXPECT_TRUE(sets.WindowUsers(7).empty());
  EXPECT_EQ(sets.active_keywords(), 1u);
}

TEST(UserIdSetsTest, UserInMultipleQuantaSurvivesPartialExpiry) {
  UserIdSets sets(2);
  for (int q = 0; q < 2; ++q) Ingest(sets, MakeQuantum(q, {{42, {1}}}));
  // User 42 appeared in both quanta; evicting the first keeps them.
  Ingest(sets, MakeQuantum(2, {}));
  EXPECT_EQ(sets.WindowSupport(1), 1u);
  Ingest(sets, MakeQuantum(3, {}));
  EXPECT_EQ(sets.WindowSupport(1), 0u);
}

TEST(UserIdSetsTest, ExactJaccard) {
  UserIdSets sets(5);
  Ingest(sets, MakeQuantum(0, {{1, {10}}, {2, {10}}, {3, {10, 20}},
                               {4, {10, 20}}, {5, {20}}, {6, {20}}}));
  // |{3,4}| / |{1..6}| = 2/6.
  EXPECT_NEAR(sets.Jaccard(10, 20), 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(sets.Jaccard(10, 99), 0.0);
  EXPECT_DOUBLE_EQ(sets.Jaccard(10, 10), 1.0);
}

// Brute-force window model: each keyword's users as a multiset with one
// copy per window quantum, plus the quanta themselves for expiry.
struct IdSetModel {
  std::size_t window_length;
  std::deque<QuantumAggregate> quanta;
  std::map<KeywordId, std::multiset<UserId>> window;

  void Ingest(const QuantumAggregate& aggregate) {
    quanta.push_back(aggregate);
    for (std::uint64_t pair : aggregate.pairs) {
      window[PairKeyword(pair)].insert(PairUser(pair));
    }
    if (quanta.size() > window_length) {
      for (std::uint64_t pair : quanta.front().pairs) {
        std::multiset<UserId>& users = window[PairKeyword(pair)];
        users.erase(users.find(PairUser(pair)));
        if (users.empty()) window.erase(PairKeyword(pair));
      }
      quanta.pop_front();
    }
  }

  // The window's (keyword, user) pairs, ascending PackPair values.
  std::vector<std::uint64_t> Pairs() const {
    std::vector<std::uint64_t> pairs;
    for (const auto& [keyword, users] : window) {
      for (UserId user : users) pairs.push_back(PackPair(keyword, user));
    }
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return pairs;
  }

  std::vector<UserId> Users(KeywordId keyword) const {
    const auto it = window.find(keyword);
    if (it == window.end()) return {};
    std::vector<UserId> users(it->second.begin(), it->second.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
    return users;
  }
};

// A churning quantum: the vocabulary and the user range both slide
// forward with `index`, so keywords and users keep entering and expiring.
QuantumAggregate ChurnAggregate(QuantumIndex index, Rng& rng) {
  QuantumAggregate aggregate;
  const KeywordId first_keyword = static_cast<KeywordId>(index * 2);
  const UserId first_user = static_cast<UserId>(index * 5);
  for (KeywordId k = first_keyword; k < first_keyword + 40; ++k) {
    if (rng.UniformInt(3) != 0) continue;
    std::vector<UserId> users;
    const std::size_t draws = 1 + rng.UniformInt(30);
    for (std::size_t i = 0; i < draws; ++i) {
      users.push_back(first_user + static_cast<UserId>(rng.UniformInt(60)));
    }
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
    for (UserId user : users) aggregate.pairs.push_back(PackPair(k, user));
  }
  return aggregate;
}

// JaccardAtLeast(a, b, floor) against the exact value at floors 0.2, the
// value itself and its neighbours on both sides: bit-equal to it where it
// reaches the floor, and otherwise below the floor and not below it.
void ExpectJaccardAtLeast(const UserIdSets& sets, KeywordId a, KeywordId b,
                          double exact) {
  for (const double floor : {0.2, exact, std::nextafter(exact, -1.0),
                             std::nextafter(exact, 2.0)}) {
    const double got = sets.JaccardAtLeast(a, b, floor);
    if (exact >= floor) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(exact))
          << "keywords " << a << ", " << b << " floor " << floor;
    } else {
      ASSERT_LT(got, floor) << "keywords " << a << ", " << b;
      ASSERT_GE(got, exact) << "keywords " << a << ", " << b;
    }
  }
}

// Everything the store answers, checked against the model. Keywords range
// over the whole vocabulary seen so far, so absent keywords are probed too.
// `skewed` counts the non-empty pairs whose sizes differ 10:1 or more.
void ExpectMatchesModel(const UserIdSets& sets, const IdSetModel& model,
                        KeywordId max_keyword, std::size_t* skewed = nullptr) {
  ASSERT_EQ(sets.active_keywords(), model.window.size());
  for (KeywordId k = 0; k <= max_keyword; ++k) {
    const std::vector<UserId> users = model.Users(k);
    ASSERT_EQ(Users(sets, k), users) << "keyword " << k;
    ASSERT_EQ(sets.WindowSupport(k), users.size());
  }
  for (KeywordId a = 0; a <= max_keyword; ++a) {
    for (KeywordId b = a; b <= max_keyword; b += 3) {
      const std::vector<UserId> ua = model.Users(a);
      const std::vector<UserId> ub = model.Users(b);
      double expected = 0.0;
      if (!ua.empty() && !ub.empty()) {
        std::vector<UserId> common;
        std::set_intersection(ua.begin(), ua.end(), ub.begin(), ub.end(),
                              std::back_inserter(common));
        expected = static_cast<double>(common.size()) /
                   static_cast<double>(ua.size() + ub.size() - common.size());
      }
      // Bit for bit: both sides divide the same two exact counts.
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sets.Jaccard(a, b)),
                std::bit_cast<std::uint64_t>(expected))
          << "keywords " << a << ", " << b;
      ASSERT_NO_FATAL_FAILURE(ExpectJaccardAtLeast(sets, a, b, expected));
      const std::size_t small = std::min(ua.size(), ub.size());
      const std::size_t large = std::max(ua.size(), ub.size());
      if (skewed != nullptr && small > 0 && large >= 10 * small) ++*skewed;
    }
  }
}

std::string SaveBytes(const UserIdSets& sets) {
  BinaryWriter out;
  sets.Save(out);
  return out.data();
}

std::vector<std::uint64_t> Vector(std::span<const std::uint64_t> pairs) {
  return {pairs.begin(), pairs.end()};
}

// The last ingest's transitions against the model's window before and
// after it: the pairs only the new window holds entered, those only the
// old one held left.
void ExpectTransitions(const UserIdSets& sets,
                       const std::vector<std::uint64_t>& before,
                       const std::vector<std::uint64_t>& after) {
  std::vector<std::uint64_t> entered, left;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(entered));
  std::set_difference(before.begin(), before.end(), after.begin(),
                      after.end(), std::back_inserter(left));
  ASSERT_EQ(Vector(sets.entered()), entered);
  ASSERT_EQ(Vector(sets.left()), left);
}

// Random churning quanta through IngestAggregate against the brute-force
// model, with a mid-stream Save -> Restore that must continue exactly like
// the uninterrupted store. Jaccard and JaccardAtLeast are checked on every
// probed pair, empty and 10:1-skewed ones included, and the row
// transitions after every ingest; every seventh quantum is empty, so the
// window only expires.
TEST(UserIdSetsTest, MatchesBruteForceModel) {
  std::size_t skewed = 0, expiry_only_leaves = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t window = 1 + seed % 6;
    SCOPED_TRACE(testing::Message() << "seed " << seed << " window " << window);
    Rng rng(seed);
    UserIdSets sets(window);
    std::unique_ptr<UserIdSets> restored;
    IdSetModel model{window, {}, {}};
    const QuantumIndex kQuanta = 24;
    const QuantumIndex kSaveAfter = 2 + static_cast<QuantumIndex>(seed % 9);
    for (QuantumIndex q = 0; q < kQuanta; ++q) {
      QuantumAggregate aggregate = ChurnAggregate(q, rng);
      if (q % 7 == 6) aggregate.pairs.clear();
      const std::vector<std::uint64_t> before = model.Pairs();
      sets.IngestAggregate(aggregate);
      model.Ingest(aggregate);
      const std::vector<std::uint64_t> after = model.Pairs();
      ASSERT_NO_FATAL_FAILURE(ExpectTransitions(sets, before, after));
      if (aggregate.pairs.empty()) expiry_only_leaves += sets.left().size();
      const KeywordId max_keyword = static_cast<KeywordId>(q * 2 + 40);
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesModel(sets, model, max_keyword, &skewed));
      if (restored) {
        restored->IngestAggregate(aggregate);
        ASSERT_NO_FATAL_FAILURE(ExpectTransitions(*restored, before, after));
        ASSERT_NO_FATAL_FAILURE(
            ExpectMatchesModel(*restored, model, max_keyword));
        ASSERT_EQ(SaveBytes(*restored), SaveBytes(sets));
      }
      if (q + 1 == kSaveAfter) {
        // Restored over a copy that holds this quantum's transitions: the
        // load clears them.
        const std::string bytes = SaveBytes(sets);
        restored = std::make_unique<UserIdSets>(sets);
        ASSERT_FALSE(restored->entered().empty() && restored->left().empty());
        BinaryReader in(bytes);
        ASSERT_TRUE(restored->Restore(in));
        EXPECT_TRUE(restored->entered().empty());
        EXPECT_TRUE(restored->left().empty());
        ASSERT_NO_FATAL_FAILURE(
            ExpectMatchesModel(*restored, model, max_keyword));
      }
    }
  }
  EXPECT_GT(skewed, 0u);
  EXPECT_GT(expiry_only_leaves, 0u);
}

// A hand-built UserIdSets encoding, in Save()'s layout: w, the depth,
// then each quantum history entry as a count and its (keyword, user)
// pairs, packed.
struct ForgedIdSets {
  std::uint64_t window = 3;
  // The depth field; the number of entries unless forged.
  std::optional<std::uint32_t> depth;
  std::vector<std::vector<std::pair<KeywordId, UserId>>> history;

  std::string Encode() const {
    BinaryWriter out;
    out.U64(window);
    out.U32(depth.value_or(static_cast<std::uint32_t>(history.size())));
    for (const auto& entry : history) {
      out.U64(entry.size());
      for (const auto& [keyword, user] : entry) {
        out.U64(PackPair(keyword, user));
      }
    }
    return out.data();
  }
};

// A canonical two-quantum state of a w = 3 store.
ForgedIdSets CanonicalIdSets() {
  ForgedIdSets forged;
  forged.history = {{{1, 5}, {1, 7}, {17, 2}}, {{1, 9}, {2, 4}}};
  return forged;
}

// Restore accepts only the canonical form Save writes. Every forged
// encoding below must fail and leave the store empty, whatever it held.
TEST(UserIdSetsTest, RestoreRejectsNonCanonicalState) {
  const UserIdSets empty(3);
  const std::string canonical = CanonicalIdSets().Encode();
  {
    // The unforged baseline restores, and re-saves to the same bytes.
    UserIdSets sets(3);
    BinaryReader in(canonical);
    ASSERT_TRUE(sets.Restore(in));
    EXPECT_EQ(Users(sets, 1), (std::vector<UserId>{5, 7, 9}));
    EXPECT_EQ(Users(sets, 2), (std::vector<UserId>{4}));
    EXPECT_EQ(sets.depth(), 2u);
    EXPECT_EQ(SaveBytes(sets), canonical);
  }
  const auto forge = [](const std::function<void(ForgedIdSets&)>& edit) {
    ForgedIdSets forged = CanonicalIdSets();
    edit(forged);
    return forged.Encode();
  };
  const struct {
    const char* name;
    std::string bytes;
  } cases[] = {
      {"pairs out of order",
       forge([](ForgedIdSets& f) { f.history[0] = {{1, 7}, {1, 5}}; })},
      {"keywords out of order",
       forge([](ForgedIdSets& f) { f.history[0] = {{17, 2}, {1, 5}}; })},
      {"duplicate pair",
       forge([](ForgedIdSets& f) { f.history[1] = {{1, 9}, {1, 9}}; })},
      {"depth exceeds the window",
       forge([](ForgedIdSets& f) { f.history.resize(4); })},
      {"window length above w", forge([](ForgedIdSets& f) { f.window = 4; })},
      {"window length below w", forge([](ForgedIdSets& f) { f.window = 2; })},
      {"depth field above the entries",
       forge([](ForgedIdSets& f) { f.depth = 3; })},
      {"last entry short of its count",
       canonical.substr(0, canonical.size() - 8)},
      {"last pair cut", canonical.substr(0, canonical.size() - 1)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    // Start from a populated store, so "empty" is the reset's doing.
    UserIdSets sets(3);
    BinaryReader good(canonical);
    ASSERT_TRUE(sets.Restore(good));
    ASSERT_GT(sets.active_keywords(), 0u);

    BinaryReader in(c.bytes);
    EXPECT_FALSE(sets.Restore(in));
    EXPECT_EQ(sets.active_keywords(), 0u);
    EXPECT_TRUE(Users(sets, 1).empty());
    EXPECT_EQ(SaveBytes(sets), SaveBytes(empty));
  }
}

// --- AggregateQuantum ---

// Ids at the edges of the packing next to ordinary ones.
constexpr std::uint32_t kEdgeIds[] = {0, 1, 7, 0xfffffffeu, 0xffffffffu};

std::uint32_t DrawId(Rng& rng) {
  return kEdgeIds[rng.UniformInt(std::size(kEdgeIds))];
}

TEST(AggregateQuantumTest, MatchesBruteForceModel) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    stream::Quantum quantum;
    quantum.index = static_cast<QuantumIndex>(seed);
    // Seed 1 is the empty quantum; otherwise messages may carry no
    // keyword, repeat a keyword, or repeat a (keyword, user) pair of an
    // earlier message.
    const std::size_t messages = seed == 1 ? 0 : rng.UniformInt(30);
    std::map<KeywordId, std::set<UserId>> model;
    for (std::size_t i = 0; i < messages; ++i) {
      stream::Message m;
      m.user = DrawId(rng);
      const std::size_t keywords = rng.UniformInt(5);
      for (std::size_t j = 0; j < keywords; ++j) {
        m.keywords.push_back(DrawId(rng));
        if (rng.UniformInt(4) == 0) m.keywords.push_back(m.keywords.back());
      }
      for (KeywordId k : m.keywords) model[k].insert(m.user);
      quantum.messages.push_back(std::move(m));
    }
    const QuantumAggregate aggregate = AggregateQuantum(quantum);
    ASSERT_TRUE(std::adjacent_find(aggregate.pairs.begin(),
                                   aggregate.pairs.end(),
                                   std::greater_equal<std::uint64_t>()) ==
                aggregate.pairs.end());
    std::map<KeywordId, std::set<UserId>> got;
    for (std::uint64_t pair : aggregate.pairs) {
      got[PairKeyword(pair)].insert(PairUser(pair));
    }
    EXPECT_EQ(got, model);
  }
}

TEST(AggregateQuantumTest, PackingKeepsEdgeIdsApart) {
  const QuantumAggregate aggregate = AggregateQuantum(MakeQuantum(4, {
      {0xffffffffu, {0, 0xffffffffu, 0}},
      {0, {0xffffffffu, 0xffffffffu}},
      {0, {0}},
      {9, {}},
  }));
  const std::vector<std::uint64_t> expected = {
      PackPair(0, 0),
      PackPair(0, 0xffffffffu),
      PackPair(0xffffffffu, 0),
      PackPair(0xffffffffu, 0xffffffffu),
  };
  EXPECT_EQ(aggregate.pairs, expected);
  EXPECT_EQ(PairKeyword(aggregate.pairs[2]), 0xffffffffu);
  EXPECT_EQ(PairUser(aggregate.pairs[2]), 0u);
  EXPECT_TRUE(AggregateQuantum(MakeQuantum(5, {})).pairs.empty());
}

// --- UserIdSets snapshot compatibility ---

// UserIdSets(3)::Save after five quanta, in the version-5 layout: the
// entries of quanta 2-4 that the per-keyword hash-map store (which
// preceded the flat window tables) saved, each a count and its packed
// pairs. The quanta were (keyword: users):
//   q0  1: 0 5 9        17: 5 9      4294967295: 0 4294967295
//   q1  1: 5 7          2: 0 7 4294967295        18: 7
//   q2  1: 9            17: 5        33: 1 2 3
//   q3  2: 7 8          4000000000: 0            4294967295: 4294967295
//   q4  1: 1 2          2: 7         3: 4 7      17: 5 11     33: 9
constexpr char kPinnedIdSetsHex[] =
    "0300000000000000030000000500000000000000090000000100000005000000"
    "1100000001000000210000000200000021000000030000002100000004000000"
    "00000000070000000200000008000000020000000000000000286beeffffffff"
    "ffffffff08000000000000000100000001000000020000000100000007000000"
    "020000000400000003000000070000000300000005000000110000000b000000"
    "110000000900000021000000";

std::string FromHex(const char* hex) {
  std::string bytes;
  for (const char* c = hex; c[0] != '\0' && c[1] != '\0'; c += 2) {
    const std::string byte(c, 2);
    bytes.push_back(static_cast<char>(std::stoi(byte, nullptr, 16)));
  }
  return bytes;
}

TEST(UserIdSetsTest, RestoresPinnedSnapshotFromHashMapStore) {
  const std::string bytes = FromHex(kPinnedIdSetsHex);
  ASSERT_EQ(bytes.size(), 172u);
  UserIdSets sets(3);
  BinaryReader in(bytes);
  ASSERT_TRUE(sets.Restore(in));
  // Values the hash-map store answered for the same state.
  EXPECT_EQ(sets.active_keywords(), 7u);
  const std::map<KeywordId, std::vector<UserId>> expected = {
      {1, {1, 2, 9}},
      {2, {7, 8}},
      {3, {4, 7}},
      {17, {5, 11}},
      {18, {}},
      {33, {1, 2, 3, 9}},
      {4000000000u, {0}},
      {0xffffffffu, {0xffffffffu}},
      {99, {}}};
  for (const auto& [keyword, users] : expected) {
    EXPECT_EQ(Users(sets, keyword), users) << "keyword " << keyword;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sets.Jaccard(1, 33)),
            0x3fe8000000000000u);  // 3/4
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sets.Jaccard(2, 3)),
            0x3fd5555555555555u);  // 1/3
  EXPECT_EQ(sets.Jaccard(1, 17), 0.0);
  EXPECT_EQ(sets.Jaccard(18, 33), 0.0);
  EXPECT_EQ(SaveBytes(sets), bytes);
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
  EXPECT_EQ(update.bursty, std::vector<KeywordId>{1});
  EXPECT_TRUE(automaton.InAkg(1));
}

// The automaton's rules as the hash-map automaton applied them, over
// std::maps: stamp every occurring keyword, admit the bursty ones, sweep
// the members for stale/faded ones, then prune every stale non-member.
class NodeStateModel {
 public:
  NodeStateModel(std::uint32_t theta, std::size_t w)
      : theta_(theta), w_(static_cast<QuantumIndex>(w)) {}

  NodeStateUpdate Process(
      QuantumIndex now,
      const std::vector<std::pair<KeywordId, std::uint32_t>>& keywords,
      const std::function<bool(KeywordId)>& in_cluster) {
    NodeStateUpdate update;
    for (const auto& [keyword, users] : keywords) {
      last_seen_[keyword] = now;
      if (users >= theta_) {
        last_bursty_[keyword] = now;
        update.bursty.push_back(keyword);
        akg_.insert(keyword);
      } else if (akg_.count(keyword)) {
        update.seen_in_akg.push_back(keyword);
      }
    }
    const QuantumIndex horizon = now - w_;
    for (auto it = akg_.begin(); it != akg_.end();) {
      const bool stale = last_seen_.at(*it) <= horizon;
      const auto bursty = last_bursty_.find(*it);
      const bool recent =
          bursty != last_bursty_.end() && bursty->second > horizon;
      if (stale || (!recent && !in_cluster(*it))) {
        update.removed.push_back(*it);
        last_bursty_.erase(*it);
        it = akg_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = last_seen_.begin(); it != last_seen_.end();) {
      if (it->second <= horizon && !akg_.count(it->first)) {
        last_bursty_.erase(it->first);
        it = last_seen_.erase(it);
      } else {
        ++it;
      }
    }
    return update;
  }

  // The hash-map automaton's Save encoding, less the last-seen stamps:
  // one (keyword, last-bursty) row per member.
  std::string SaveBytes() const {
    BinaryWriter out;
    out.U64(akg_.size());
    for (KeywordId keyword : akg_) {
      out.U32(keyword);
      out.I64(last_bursty_.at(keyword));
    }
    return out.data();
  }

  // The last-seen stamp of a keyword seen in the last w quanta: what the
  // AKG builder reads from the id sets.
  NodeStateAutomaton::LastSeenFn LastSeen() const {
    return [this](KeywordId keyword) -> std::optional<QuantumIndex> {
      const auto it = last_seen_.find(keyword);
      if (it == last_seen_.end()) return std::nullopt;
      return it->second;
    };
  }

  bool InAkg(KeywordId keyword) const { return akg_.count(keyword) > 0; }
  std::size_t akg_size() const { return akg_.size(); }

 private:
  std::uint32_t theta_;
  QuantumIndex w_;
  std::map<KeywordId, QuantumIndex> last_seen_;
  std::map<KeywordId, QuantumIndex> last_bursty_;
  std::set<KeywordId> akg_;
};

std::string SaveBytes(const NodeStateAutomaton& automaton) {
  BinaryWriter out;
  automaton.Save(out);
  return out.data();
}

// Last-seen stamps from a keyword-ascending list, as the id sets answer.
NodeStateAutomaton::LastSeenFn StampsOf(
    std::vector<std::pair<KeywordId, QuantumIndex>> list) {
  return [list = std::move(list)](
             KeywordId keyword) -> std::optional<QuantumIndex> {
    const auto it = std::lower_bound(
        list.begin(), list.end(), keyword,
        [](const auto& entry, KeywordId k) { return entry.first < k; });
    if (it == list.end() || it->first != keyword) return std::nullopt;
    return it->second;
  };
}

TEST(NodeStateTest, MatchesMapModelOfTheRules) {
  // 48 small ids plus the top of the id range.
  std::vector<KeywordId> universe;
  for (KeywordId k = 0; k < 48; ++k) universe.push_back(k);
  for (KeywordId k : {4000000000u, 0xfffffffeu, 0xffffffffu}) {
    universe.push_back(k);
  }
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto theta = static_cast<std::uint32_t>(1 + rng.UniformInt(5));
    const std::size_t w = 1 + rng.UniformInt(6);
    NodeStateAutomaton automaton(theta, w);
    NodeStateModel model(theta, w);
    const std::size_t quanta = 40;
    const std::size_t restore_after = rng.UniformInt(quanta);
    QuantumIndex now = static_cast<QuantumIndex>(rng.UniformInt(3));
    for (std::size_t q = 0; q < quanta; ++q) {
      // Mostly consecutive quanta; now and then a gap, up to past w.
      if (q > 0) {
        now += 1 + (rng.UniformInt(5) == 0
                        ? static_cast<QuantumIndex>(rng.UniformInt(w + 2))
                        : 0);
      }
      const std::uint64_t occur = 1 + rng.UniformInt(3);  // in 4
      std::vector<std::pair<KeywordId, std::uint32_t>> keywords;
      for (KeywordId k : universe) {
        if (rng.UniformInt(4) >= occur) continue;
        keywords.emplace_back(
            k, static_cast<std::uint32_t>(1 + rng.UniformInt(theta + 2)));
      }
      // A cluster predicate that changes every quantum.
      const std::uint64_t salt = rng.Next();
      const std::function<bool(KeywordId)> in_cluster =
          [salt](KeywordId k) { return SplitMix64(k ^ salt) % 3 == 0; };

      const NodeStateUpdate got =
          automaton.ProcessQuantum(now, keywords, in_cluster);
      const NodeStateUpdate want = model.Process(now, keywords, in_cluster);
      ASSERT_EQ(got.bursty, want.bursty) << "quantum " << now;
      ASSERT_EQ(got.seen_in_akg, want.seen_in_akg) << "quantum " << now;
      ASSERT_EQ(got.removed, want.removed) << "quantum " << now;
      ASSERT_EQ(automaton.akg_size(), model.akg_size());
      for (KeywordId k : universe) {
        ASSERT_EQ(automaton.InAkg(k), model.InAkg(k)) << "keyword " << k;
      }
      const std::string bytes = SaveBytes(automaton);
      ASSERT_EQ(bytes, model.SaveBytes()) << "quantum " << now;

      if (q == restore_after) {
        // Continue on an automaton restored from this quantum's bytes.
        automaton = NodeStateAutomaton(theta, w);
        BinaryReader in(bytes);
        ASSERT_TRUE(automaton.Restore(in, model.LastSeen()));
        ASSERT_EQ(SaveBytes(automaton), bytes);
      }
    }
  }
}

// Save() bytes of a hash-map automaton (theta = 3, w = 4, cluster members
// 7 and 4000000000) after quanta 0, 1, 2, 3 and 5, in the version-6
// layout: one (keyword, last-bursty) row for each of the 5 members. The
// hash-map automaton also saved the last-seen stamps of 10 keywords,
// which the id sets now answer: kPinnedLastSeen.
constexpr char kPinnedNodeStateHex[] =
    "0500000000000000010000000300000000000000070000000000000000000000"
    "0c000000050000000000000000286bee0200000000000000ffffffff03000000"
    "00000000";
const std::vector<std::pair<KeywordId, QuantumIndex>> kPinnedLastSeen = {
    {0, 5},  {1, 3},  {2, 2},  {5, 5},          {7, 3},
    {9, 5},  {11, 3}, {12, 5}, {4000000000u, 2}, {0xffffffffu, 3}};

TEST(NodeStateTest, RestoresPinnedSnapshotFromHashMapStore) {
  const std::string bytes = FromHex(kPinnedNodeStateHex);
  ASSERT_EQ(bytes.size(), 68u);
  NodeStateAutomaton automaton(3, 4);
  BinaryReader in(bytes);
  ASSERT_TRUE(automaton.Restore(in, StampsOf(kPinnedLastSeen)));
  // Values the hash-map automaton answered for the same state.
  EXPECT_EQ(automaton.akg_size(), 5u);
  for (KeywordId k : {1u, 7u, 12u, 4000000000u, 0xffffffffu}) {
    EXPECT_TRUE(automaton.InAkg(k)) << "keyword " << k;
  }
  for (KeywordId k : {0u, 2u, 5u, 9u, 11u}) {
    EXPECT_FALSE(automaton.InAkg(k)) << "keyword " << k;
  }
  EXPECT_EQ(SaveBytes(automaton), bytes);

  // The hash-map automaton's next two quanta, decided by the stamps.
  const std::function<bool(KeywordId)> in_cluster = [](KeywordId k) {
    return k == 7 || k == 4000000000u;
  };
  NodeStateUpdate update = automaton.ProcessQuantum(
      6, Counts({{1, 1}, {7, 1}, {9, 1}}), in_cluster);
  EXPECT_TRUE(update.bursty.empty());
  EXPECT_EQ(update.seen_in_akg, (std::vector<KeywordId>{1, 7}));
  // Last seen at quantum 2: stale at horizon 2 although in a cluster.
  EXPECT_EQ(update.removed, std::vector<KeywordId>{4000000000u});
  EXPECT_EQ(automaton.akg_size(), 4u);
  update = automaton.ProcessQuantum(8, Counts({{12, 1}, {4000000000u, 1}}),
                                    in_cluster);
  EXPECT_EQ(update.seen_in_akg, std::vector<KeywordId>{12});
  // Both last bursty at quantum 3: faded at horizon 4.
  EXPECT_EQ(update.removed, (std::vector<KeywordId>{1, 0xffffffffu}));
  EXPECT_EQ(automaton.akg_size(), 2u);
}

// The Save() encoding of the given (member, last-bursty) rows, in the
// order given.
std::string NodeStatePayload(
    std::initializer_list<std::pair<KeywordId, QuantumIndex>> rows) {
  BinaryWriter out;
  out.U64(rows.size());
  for (const auto& [keyword, stamp] : rows) {
    out.U32(keyword);
    out.I64(stamp);
  }
  return out.data();
}

// Keywords 1 and 2 last seen at quantum 5: the window the id sets hold.
const NodeStateAutomaton::LastSeenFn kLastSeen = StampsOf({{1, 5}, {2, 5}});

TEST(NodeStateTest, RestoreRejectsNonCanonicalState) {
  const std::string valid = NodeStatePayload({{1, 5}});
  for (const std::string& bytes : {
           // A member outside the window, so without a last-seen stamp.
           NodeStatePayload({{1, 5}, {3, 5}}),
           NodeStatePayload({{3, 5}}),
           // Rows out of order or repeated.
           NodeStatePayload({{2, 5}, {1, 5}}),
           NodeStatePayload({{1, 5}, {1, 6}}),
           // Truncated.
           valid.substr(0, valid.size() - 1),
       }) {
    NodeStateAutomaton automaton(3, 4);
    automaton.ProcessQuantum(0, Counts({{7, 3}}), kNeverInCluster);
    BinaryReader in(bytes);
    EXPECT_FALSE(automaton.Restore(in, kLastSeen));
    // Cleared on failure.
    EXPECT_EQ(automaton.akg_size(), 0u);
  }
  NodeStateAutomaton automaton(3, 4);
  BinaryReader in(valid);
  ASSERT_TRUE(automaton.Restore(in, kLastSeen));
  EXPECT_TRUE(automaton.InAkg(1));
  EXPECT_EQ(SaveBytes(automaton), valid);
}

// --- MinHash ---

// The paper's signature of a distinct-user set.
MinHashSignature Signature(std::size_t p, std::uint64_t seed,
                           const std::vector<UserId>& users) {
  return MinHasher(p, seed).Sketch(users);
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
  EXPECT_DOUBLE_EQ(EstimateJaccard(a, b, 4), 1.0);
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

AkgConfig TestConfig() {
  AkgConfig config;
  config.high_state_threshold = 3;
  config.ec_threshold = 0.5;
  config.window_length = 3;
  config.ec_mode = EcMode::kExact;
  return config;
}

// A builder wired to its own maintainer, applying each delta as the
// detector does.
struct WiredBuilder {
  explicit WiredBuilder(const AkgConfig& config)
      : builder(config, maintainer) {}

  cluster::GraphDelta Process(const stream::Quantum& quantum) {
    cluster::GraphDelta delta = builder.ProcessQuantum(quantum);
    maintainer.Apply(delta);
    return delta;
  }

  cluster::ScpMaintainer maintainer;
  AkgBuilder builder;
};

TEST(AkgBuilderTest, CorrelatedBurstyKeywordsGetEdge) {
  WiredBuilder akg(TestConfig());
  // Keywords 1 and 2 used together by users 1..4.
  const auto delta = akg.Process(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}}, {4, {1, 2}},
  }));
  EXPECT_EQ(akg.builder.node_state().akg_size(), 2u);
  ASSERT_EQ(delta.edges_added.size(), 1u);
  EXPECT_EQ(delta.edges_added[0], Edge::Of(1, 2));
  EXPECT_TRUE(akg.maintainer.graph().HasEdge(1, 2));
  EXPECT_DOUBLE_EQ(akg.builder.EdgeCorrelation(Edge::Of(1, 2)), 1.0);
  EXPECT_EQ(akg.builder.NodeWeight(1), 4u);
}

TEST(AkgBuilderTest, NewEdgeIsCorrelatedOnce) {
  // The quantum that adds the first edge computes its EC once: the
  // re-validation pass reads the previous quantum's graph, which does not
  // hold the edge yet.
  WiredBuilder akg(TestConfig());
  const auto delta = akg.Process(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}},
  }));
  ASSERT_EQ(delta.edges_added.size(), 1u);
  EXPECT_EQ(akg.builder.last_stats().ec_computed, 1u);
  // Next quantum both keywords are seen again: the edge is re-validated.
  akg.Process(MakeQuantum(1, {{1, {1, 2}}}));
  EXPECT_EQ(akg.builder.last_stats().ec_computed, 1u);
  EXPECT_TRUE(akg.maintainer.graph().HasEdge(1, 2));
}

TEST(AkgBuilderTest, WeakCorrelationNoEdge) {
  WiredBuilder akg(TestConfig());
  // Both bursty but different user sets: Jaccard 0 < 0.5.
  const auto delta = akg.Process(MakeQuantum(0, {
      {1, {1}}, {2, {1}}, {3, {1}},
      {11, {2}}, {12, {2}}, {13, {2}},
  }));
  EXPECT_EQ(akg.builder.node_state().akg_size(), 2u);
  EXPECT_TRUE(delta.edges_added.empty());
}

TEST(AkgBuilderTest, NonBurstyKeywordNeverEnters) {
  WiredBuilder akg(TestConfig());
  akg.Process(MakeQuantum(0, {
      {1, {1}}, {2, {1}},  // only 2 users < theta=3
  }));
  EXPECT_EQ(akg.builder.node_state().akg_size(), 0u);
  EXPECT_FALSE(akg.builder.node_state().InAkg(1));
}

TEST(AkgBuilderTest, EdgeDroppedWhenCorrelationDecays) {
  WiredBuilder akg(TestConfig());
  akg.Process(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}},
  }));
  ASSERT_TRUE(akg.maintainer.graph().HasEdge(1, 2));
  // Subsequent quanta: both keywords keep occurring but used by disjoint
  // user crowds; window Jaccard decays below 0.5.
  for (QuantumIndex q = 1; q <= 2; ++q) {
    akg.Process(MakeQuantum(q, {
        {static_cast<UserId>(20 + q), {1}},
        {static_cast<UserId>(21 + q * 10), {1}},
        {static_cast<UserId>(22 + q * 10), {1}},
        {static_cast<UserId>(60 + q), {2}},
        {static_cast<UserId>(61 + q * 10), {2}},
        {static_cast<UserId>(62 + q * 10), {2}},
    }));
  }
  EXPECT_FALSE(akg.maintainer.graph().HasEdge(1, 2));
  EXPECT_DOUBLE_EQ(akg.builder.EdgeCorrelation(Edge::Of(1, 2)), 0.0);
}

TEST(AkgBuilderTest, StaleNodeEvictedWithEdges) {
  WiredBuilder akg(TestConfig());
  akg.Process(MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}},
  }));
  ASSERT_EQ(akg.builder.node_state().akg_size(), 2u);
  bool removed_nodes = false;
  for (QuantumIndex q = 1; q <= 4; ++q) {
    const auto delta = akg.Process(MakeQuantum(q, {
        {static_cast<UserId>(q), {9}},
    }));
    removed_nodes |= !delta.nodes_removed.empty();
    // The evicted nodes' edges leave through the maintainer's RemoveNode.
    EXPECT_TRUE(delta.edges_removed.empty());
  }
  EXPECT_TRUE(removed_nodes);
  EXPECT_EQ(akg.builder.node_state().akg_size(), 0u);
  EXPECT_EQ(akg.builder.last_stats().akg_edges, 0u);
  EXPECT_EQ(akg.maintainer.graph().edge_count(), 0u);
  EXPECT_DOUBLE_EQ(akg.builder.EdgeCorrelation(Edge::Of(1, 2)), 0.0);
}

TEST(AkgBuilderTest, EvictedKeywordKeepsNoSignature) {
  // Keyword 1 is bursty at quantum 0, then seen by one user per quantum
  // until it fades at quantum w: it is seen and evicted in the same
  // quantum, and must not be re-signed after its signature was dropped.
  const AkgConfig config = TestConfig();
  WiredBuilder akg(config);
  akg.Process(MakeQuantum(0, {{1, {1}}, {2, {1}}, {3, {1}}}));
  ASSERT_FALSE(akg.builder.ExportClusterSketch({1}).empty());
  const auto w = static_cast<QuantumIndex>(config.window_length);
  for (QuantumIndex q = 1; q < w; ++q) {
    akg.Process(MakeQuantum(q, {{static_cast<UserId>(10 + q), {1}}}));
    ASSERT_TRUE(akg.builder.node_state().InAkg(1)) << "quantum " << q;
  }
  const auto delta =
      akg.Process(MakeQuantum(w, {{static_cast<UserId>(10 + w), {1}}}));
  ASSERT_EQ(delta.nodes_removed, std::vector<KeywordId>{1});
  EXPECT_TRUE(akg.builder.ExportClusterSketch({1}).empty());
}

TEST(AkgBuilderTest, MinHashScreenAgreesWithExactOnStrongPairs) {
  AkgConfig exact = TestConfig();
  AkgConfig screened = TestConfig();
  screened.ec_mode = EcMode::kMinHashScreenExactVerify;
  screened.minhash_size = 8;
  WiredBuilder akg_exact(exact);
  WiredBuilder akg_screen(screened);
  const auto quantum = MakeQuantum(0, {
      {1, {1, 2}}, {2, {1, 2}}, {3, {1, 2}}, {4, {1, 2}}, {5, {1, 2}},
      {6, {3}}, {7, {3}}, {8, {3}},
  });
  const auto d1 = akg_exact.Process(quantum);
  const auto d2 = akg_screen.Process(quantum);
  ASSERT_EQ(d1.edges_added.size(), 1u);
  ASSERT_EQ(d2.edges_added.size(), 1u);  // identical sets always share minhash
  EXPECT_EQ(d1.edges_added[0], d2.edges_added[0]);
}

TEST(AkgBuilderTest, StatsReflectSizes) {
  WiredBuilder akg(TestConfig());
  akg.Process(MakeQuantum(0, {
      {1, {1, 2, 5}}, {2, {1, 2}}, {3, {1, 2}}, {4, {7}},
  }));
  const auto& stats = akg.builder.last_stats();
  EXPECT_EQ(stats.quantum_keywords, 4u);  // {1, 2, 5, 7}
  EXPECT_EQ(stats.bursty, 2u);            // {1, 2}
  EXPECT_EQ(stats.akg_nodes, 2u);
  EXPECT_EQ(stats.akg_edges, 1u);
  EXPECT_EQ(stats.ckg_nodes, 4u);
}

// A window signature is the bottom-p of the keyword's window id set under
// SeededHash(config.seed): brute force, straight from the id set.
MinHashSignature BruteForceWindowSignature(const AkgBuilder& builder,
                                           KeywordId keyword) {
  const SeededHash hash(builder.config().seed);
  MinHashSignature values;
  for (UserId user : builder.id_sets().WindowUsers(keyword)) {
    values.push_back(hash(user));
  }
  std::sort(values.begin(), values.end());
  if (values.size() > builder.sketch_size()) {
    values.resize(builder.sketch_size());
  }
  return values;
}

// Keywords the builder refreshed on `quantum`: occurring in it and an AKG
// node (set (1) bursty, set (2) AKG-and-seen).
std::vector<KeywordId> RefreshedKeywords(const AkgBuilder& builder,
                                         const stream::Quantum& quantum) {
  std::set<KeywordId> occurring;
  for (const stream::Message& m : quantum.messages) {
    occurring.insert(m.keywords.begin(), m.keywords.end());
  }
  std::vector<KeywordId> refreshed;
  for (KeywordId k : occurring) {
    if (builder.node_state().InAkg(k)) refreshed.push_back(k);
  }
  return refreshed;
}

// Churning crowds: each quantum draws its users from a range that slides
// forward, so window entries expire and the bottom-p keeps moving.
stream::Quantum ChurnQuantum(QuantumIndex index, Rng& rng) {
  stream::Quantum q;
  q.index = index;
  const UserId base = static_cast<UserId>(index * 7);
  for (int i = 0; i < 40; ++i) {
    stream::Message m;
    m.user = base + static_cast<UserId>(rng.UniformInt(24));
    for (KeywordId k = 1; k <= 6; ++k) {
      if (rng.UniformInt(3) == 0) m.keywords.push_back(k);
    }
    m.keywords.push_back(static_cast<KeywordId>(10 + rng.UniformInt(20)));
    q.messages.push_back(std::move(m));
  }
  return q;
}

void ExpectSameDelta(const cluster::GraphDelta& a,
                     const cluster::GraphDelta& b) {
  EXPECT_EQ(a.nodes_removed, b.nodes_removed);
  EXPECT_EQ(a.edges_added, b.edges_added);
  EXPECT_EQ(a.edges_removed, b.edges_removed);
}

// Canonical bytes of a builder's state: equal states, equal bytes (edge
// correlations included, bit for bit).
std::string SavedBytes(const AkgBuilder& builder) {
  BinaryWriter out;
  builder.Save(out);
  return out.data();
}

// The refreshed signatures against the brute-force bottom-p of the window
// id set at p = 1, 2, 4 and 16 (at 16 most sets hold at most p users, so
// every leave invalidates the transition-maintained bottom-p). A builder
// restored mid-stream starts with every current bottom-p invalid (its
// first refresh rescans each keyword), then runs delta- and
// byte-identical to the uninterrupted one.
TEST(AkgBuilderTest, WindowSignatureIsBottomPOfWindowIdSet) {
  obs::Counter* const refreshed =
      obs::Registry::Default().GetCounter("akg.signatures_refreshed");
  obs::Counter* const rescanned =
      obs::Registry::Default().GetCounter("akg.signatures_rescanned");
  for (const std::size_t p : {1, 2, 4, 16}) {
    SCOPED_TRACE(testing::Message() << "p " << p);
    AkgConfig config = TestConfig();
    config.ec_mode = EcMode::kMinHashScreenExactVerify;
    config.ec_threshold = 0.2;
    config.minhash_size = p;
    config.window_length = 4;
    WiredBuilder akg(config);
    const AkgBuilder& builder = akg.builder;
    std::unique_ptr<WiredBuilder> restored;
    Rng rng(404);
    const QuantumIndex kQuanta = 16;
    const QuantumIndex kSaveAfter = 9;  // after the window has filled
    const SeededHash hash(config.seed);
    std::unordered_map<KeywordId, std::set<UserId>> ever_used;
    std::size_t checked = 0, expired_moved = 0, small_sets = 0;
    std::uint64_t refreshes = 0, rescans = 0;
    for (QuantumIndex q = 0; q < kQuanta; ++q) {
      const stream::Quantum quantum = ChurnQuantum(q, rng);
      for (const stream::Message& m : quantum.messages) {
        for (KeywordId k : m.keywords) ever_used[k].insert(m.user);
      }
      const std::uint64_t refreshed_before = refreshed->Value();
      const std::uint64_t rescanned_before = rescanned->Value();
      const cluster::GraphDelta delta = akg.Process(quantum);
      refreshes += refreshed->Value() - refreshed_before;
      rescans += rescanned->Value() - rescanned_before;
      for (KeywordId k : RefreshedKeywords(builder, quantum)) {
        const MinHashSignature brute = BruteForceWindowSignature(builder, k);
        EXPECT_EQ(builder.ExportClusterSketch({k}), brute)
            << "quantum " << q << " keyword " << k;
        ++checked;
        small_sets += builder.id_sets().WindowSupport(k) <= p;
        // Expiry visibly moved the signature: the bottom-p over every user
        // the keyword ever had differs from the window's.
        MinHashSignature all_time;
        for (UserId user : ever_used[k]) all_time.push_back(hash(user));
        std::sort(all_time.begin(), all_time.end());
        all_time.resize(std::min(all_time.size(), builder.sketch_size()));
        if (all_time != brute) ++expired_moved;
      }
      if (restored) {
        const bool first = q == kSaveAfter;
        const std::uint64_t refreshed_before_restored = refreshed->Value();
        const std::uint64_t rescanned_before_restored = rescanned->Value();
        const cluster::GraphDelta again = restored->Process(quantum);
        if (first) {
          // Cold: every refresh of the restored builder's first quantum
          // rescans.
          EXPECT_GT(refreshed->Value(), refreshed_before_restored);
          EXPECT_EQ(rescanned->Value() - rescanned_before_restored,
                    refreshed->Value() - refreshed_before_restored);
        }
        ExpectSameDelta(delta, again);
        EXPECT_EQ(SavedBytes(restored->builder), SavedBytes(builder))
            << "quantum " << q;
        for (KeywordId k : RefreshedKeywords(builder, quantum)) {
          EXPECT_EQ(restored->builder.ExportClusterSketch({k}),
                    BruteForceWindowSignature(restored->builder, k));
        }
      }
      if (q + 1 == kSaveAfter) {
        // The maintainer's graph is the AKG's edge set: it is rebuilt from
        // the builder's correlations, as in a detector snapshot load.
        BinaryWriter out;
        builder.Save(out);
        akg.maintainer.Save(out);
        restored = std::make_unique<WiredBuilder>(config);
        BinaryReader in(out.data());
        ASSERT_TRUE(restored->builder.Restore(in, q));
        ASSERT_TRUE(restored->maintainer.Restore(
            in, restored->builder.CorrelatedEdges()));
        ASSERT_EQ(restored->maintainer.graph().edge_count(),
                  akg.maintainer.graph().edge_count());
      }
    }
    EXPECT_GT(checked, 30u);
    EXPECT_GT(expired_moved, 0u);
    // The uninterrupted builder served some refreshes from the table.
    EXPECT_LT(rescans, refreshes);
    if (p == 16) {
      EXPECT_GT(small_sets, checked / 2);
    }
  }
}

// A drifting vocabulary: quantum q draws keywords from [3q, 3q + 16), so a
// keyword occurs for a few quanta, then goes stale and expires, and its
// last-seen stamp trails the clock in between.
stream::Quantum DriftQuantum(QuantumIndex index, Rng& rng) {
  stream::Quantum q;
  q.index = index;
  for (int i = 0; i < 30; ++i) {
    stream::Message m;
    m.user = static_cast<UserId>(rng.UniformInt(50));
    const std::size_t keywords = 1 + rng.UniformInt(3);
    for (std::size_t j = 0; j < keywords; ++j) {
      m.keywords.push_back(
          static_cast<KeywordId>(index * 3 + rng.UniformInt(16)));
    }
    q.messages.push_back(std::move(m));
  }
  return q;
}

// Every quantum, the window recomputed from the raw last w quanta against
// everything the AKG layer reads from its id sets: the CKG node count,
// each keyword's window users and the last-seen stamps a load reads.
TEST(AkgBuilderTest, WindowMatchesRawLastWQuanta) {
  AkgConfig config = TestConfig();
  config.window_length = 4;
  WiredBuilder akg(config);
  const AkgBuilder& builder = akg.builder;
  Rng rng(2012);
  std::deque<stream::Quantum> raw;
  std::size_t stale_stamps = 0;
  for (QuantumIndex q = 0; q < 30; ++q) {
    SCOPED_TRACE(testing::Message() << "quantum " << q);
    raw.push_back(DriftQuantum(q, rng));
    if (raw.size() > config.window_length) raw.pop_front();
    akg.Process(raw.back());

    std::map<KeywordId, std::set<UserId>> users;
    std::map<KeywordId, QuantumIndex> last_seen;
    for (const stream::Quantum& quantum : raw) {
      for (const stream::Message& m : quantum.messages) {
        for (KeywordId k : m.keywords) {
          users[k].insert(m.user);
          last_seen[k] = quantum.index;
        }
      }
    }
    ASSERT_EQ(builder.last_stats().ckg_nodes, users.size());
    for (KeywordId k = 0; k < 3 * 30 + 20; ++k) {
      const auto it = users.find(k);
      const std::vector<UserId> want =
          it == users.end()
              ? std::vector<UserId>{}
              : std::vector<UserId>(it->second.begin(), it->second.end());
      ASSERT_EQ(Users(builder.id_sets(), k), want) << "keyword " << k;
      const auto seen = last_seen.find(k);
      const std::optional<std::size_t> want_age =
          seen == last_seen.end()
              ? std::nullopt
              : std::optional<std::size_t>(q - seen->second);
      ASSERT_EQ(builder.id_sets().QuantaSinceSeen(k), want_age)
          << "keyword " << k;
      stale_stamps += want_age.value_or(0) > 0;
    }
  }
  // The stream exercised stamps other than the current quantum's.
  EXPECT_GT(stale_stamps, 100u);
  EXPECT_GT(builder.node_state().akg_size(), 0u);
}

// The last-seen stamps are the history's positions counted back from the
// clock, so a quantum index that skips or repeats one would shift them
// silently; the builder refuses it instead. The first quantum may start
// anywhere.
TEST(AkgBuilderTest, QuantumIndicesMustBeConsecutive) {
  WiredBuilder akg(TestConfig());
  akg.Process(MakeQuantum(7, {{1, {1}}}));
  akg.Process(MakeQuantum(8, {{1, {1}}}));
  EXPECT_DEATH(akg.Process(MakeQuantum(10, {{1, {1}}})), "");
  EXPECT_DEATH(akg.Process(MakeQuantum(8, {{1, {1}}})), "");
}

// A load that fails resets the whole builder, its window and members
// included: restoring a 60-quantum builder's bytes cut short by 10 leaves
// nothing behind, and the builder then saves as a fresh one does.
TEST(AkgBuilderTest, FailedRestoreResetsToEmpty) {
  AkgConfig config = TestConfig();
  config.window_length = 30;
  WiredBuilder akg(config);
  Rng rng(60);
  for (QuantumIndex q = 0; q < 60; ++q) akg.Process(DriftQuantum(q, rng));
  ASSERT_GT(akg.builder.id_sets().active_keywords(), 0u);
  ASSERT_GT(akg.builder.node_state().akg_size(), 0u);
  std::string bytes = SavedBytes(akg.builder);
  bytes.resize(bytes.size() - 10);

  WiredBuilder restored(config);
  BinaryReader in(bytes);
  EXPECT_FALSE(restored.builder.Restore(in, 59));
  EXPECT_EQ(restored.builder.id_sets().active_keywords(), 0u);
  EXPECT_EQ(restored.builder.node_state().akg_size(), 0u);
  EXPECT_EQ(SavedBytes(restored.builder),
            SavedBytes(WiredBuilder(config).builder));
}

}  // namespace
}  // namespace scprt::akg
