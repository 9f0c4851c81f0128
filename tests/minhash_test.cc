// Mergeable weighted Min-Hash sketches: the Combine algebra (associative,
// commutative, empty identity), shard-partitioned merges matching the
// whole-set sketch bit for bit at 1/2/8 partitions (serially and on a real
// ShardPool — this suite runs in the TSan CI job), the unweighted sketch's
// equivalence to the paper's bottom-p signature (a brute-force reference),
// the Values/FromValues round trip, and the resemblance estimate.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "akg/minhash.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/types.h"
#include "engine/shard_pool.h"

namespace scprt::akg {
namespace {

std::vector<UserId> RandomUsers(Rng& rng, std::size_t count) {
  std::vector<UserId> users;
  users.reserve(count);
  while (users.size() < count) {
    const UserId u = static_cast<UserId>(rng.UniformInt(1'000'000));
    if (std::find(users.begin(), users.end(), u) == users.end()) {
      users.push_back(u);
    }
  }
  return users;
}

std::vector<std::uint32_t> RandomCounts(Rng& rng, std::size_t count) {
  std::vector<std::uint32_t> counts(count);
  for (auto& c : counts) {
    c = 1 + static_cast<std::uint32_t>(rng.UniformInt(9));
  }
  return counts;
}

// The paper's unweighted signature by brute force: the p smallest distinct
// SeededHash values of the id set, ascending.
MinHashSignature BottomPReference(std::size_t p, std::uint64_t seed,
                                  const std::vector<UserId>& users) {
  const SeededHash hash(seed);
  MinHashSignature values;
  for (const UserId user : users) values.push_back(hash(user));
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.size() > p) values.resize(p);
  return values;
}

TEST(WeightedMinHashTest, UnweightedSketchMatchesLegacySignature) {
  // Same p, same seed: the unweighted sketch's Values() must be
  // bit-identical to the paper's bottom-p signature of the same id set —
  // this is what keeps the golden traces valid with the sketch path in
  // place.
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t p = 2 + rng.UniformInt(8);
    const std::uint64_t seed = rng.Next();
    const auto users = RandomUsers(rng, 1 + rng.UniformInt(40));
    WeightedMinHasher hasher(p, seed, /*weighted=*/false);
    const WeightedSketch sketch = hasher.QuantumSketch(0, users, {});
    EXPECT_EQ(WeightedMinHasher::Values(sketch),
              BottomPReference(p, seed, users));
  }
}

TEST(WeightedMinHashTest, CombineAlgebra) {
  // Associativity, commutativity and the empty identity, for both score
  // modes, over random (possibly key-overlapping) sketches. Equality is
  // exact — Combine only moves entries, never recomputes scores.
  Rng rng(22);
  for (const bool weighted : {false, true}) {
    WeightedMinHasher hasher(4, 99, weighted);
    for (int trial = 0; trial < 100; ++trial) {
      const auto make = [&](QuantumIndex q) {
        const auto users = RandomUsers(rng, 1 + rng.UniformInt(12));
        return hasher.QuantumSketch(q, users, RandomCounts(rng, users.size()));
      };
      const WeightedSketch a = make(1);
      const WeightedSketch b = make(2);
      const WeightedSketch c = make(3);
      using W = WeightedMinHasher;
      EXPECT_EQ(W::Combine(W::Combine(a, b, 4), c, 4),
                W::Combine(a, W::Combine(b, c, 4), 4));
      EXPECT_EQ(W::Combine(a, b, 4), W::Combine(b, a, 4));
      EXPECT_EQ(W::Combine(a, WeightedSketch{}, 4), a);
      EXPECT_EQ(W::Combine(WeightedSketch{}, a, 4), a);
    }
  }
}

TEST(WeightedMinHashTest, CombineTreeShapes) {
  WeightedMinHasher hasher(3, 7, /*weighted=*/false);
  const WeightedSketch one = hasher.QuantumSketch(0, {1, 2, 3, 4, 5}, {});
  EXPECT_TRUE(WeightedMinHasher::CombineTree({}, 3).empty());
  EXPECT_EQ(WeightedMinHasher::CombineTree({one}, 3), one);
  // Odd part counts exercise the carried trailing item.
  const WeightedSketch two = hasher.QuantumSketch(0, {6, 7}, {});
  const WeightedSketch three = hasher.QuantumSketch(0, {8}, {});
  const WeightedSketch whole =
      hasher.QuantumSketch(0, {1, 2, 3, 4, 5, 6, 7, 8}, {});
  EXPECT_EQ(WeightedMinHasher::CombineTree({one, two, three}, 3), whole);
}

// The tentpole property: a keyword's occurrences split across shards (each
// user's full per-quantum occurrence in exactly one part), sketched per
// part and tree-reduced, must equal the whole-set sketch bit for bit — for
// any partition count and any part order.
TEST(WeightedMinHashTest, ShardMergeEqualsWholeSetSketch) {
  Rng rng(33);
  for (const bool weighted : {false, true}) {
    for (const std::size_t shards : {1u, 2u, 8u}) {
      for (int trial = 0; trial < 30; ++trial) {
        const std::size_t p = 2 + rng.UniformInt(7);
        WeightedMinHasher hasher(p, rng.Next(), weighted);
        const auto users = RandomUsers(rng, 1 + rng.UniformInt(60));
        const auto counts = RandomCounts(rng, users.size());
        const WeightedSketch whole = hasher.QuantumSketch(5, users, counts);

        std::vector<std::vector<UserId>> part_users(shards);
        std::vector<std::vector<std::uint32_t>> part_counts(shards);
        for (std::size_t i = 0; i < users.size(); ++i) {
          const std::size_t s = users[i] % shards;
          part_users[s].push_back(users[i]);
          part_counts[s].push_back(counts[i]);
        }
        std::vector<WeightedSketch> parts;
        for (std::size_t s = 0; s < shards; ++s) {
          parts.push_back(
              hasher.QuantumSketch(5, part_users[s], part_counts[s]));
        }
        EXPECT_EQ(WeightedMinHasher::CombineTree(parts, p), whole);
        std::reverse(parts.begin(), parts.end());
        EXPECT_EQ(WeightedMinHasher::CombineTree(parts, p), whole);
        rng.Shuffle(parts);
        EXPECT_EQ(WeightedMinHasher::CombineTree(std::move(parts), p),
                  whole);
      }
    }
  }
}

TEST(WeightedMinHashTest, TreeReduceOnShardPoolIsBitIdentical) {
  // The same reduction through a real thread pool at 2 and 8 workers must
  // produce the serial result bit for bit (and run clean under TSan).
  Rng rng(44);
  const std::size_t p = 6;
  WeightedMinHasher hasher(p, 123, /*weighted=*/true);
  std::vector<WeightedSketch> parts;
  for (QuantumIndex q = 0; q < 40; ++q) {
    const auto users = RandomUsers(rng, 1 + rng.UniformInt(30));
    parts.push_back(
        hasher.QuantumSketch(q, users, RandomCounts(rng, users.size())));
  }
  const auto merge = [p](WeightedSketch a, WeightedSketch b) {
    return WeightedMinHasher::Combine(a, b, p);
  };
  const WeightedSketch serial =
      TreeReduce(parts, merge, ParallelForFn(nullptr));
  for (const std::size_t threads : {2u, 8u}) {
    engine::ShardPool pool(threads);
    const WeightedSketch pooled = TreeReduce(
        parts, merge,
        [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
          pool.ParallelFor(n, body);
        });
    EXPECT_EQ(pooled, serial) << threads << " threads";
  }
}

TEST(WeightedMinHashTest, ValuesFromValuesRoundTrip) {
  Rng rng(55);
  WeightedMinHasher hasher(5, 77, /*weighted=*/false);
  for (int trial = 0; trial < 30; ++trial) {
    const auto users = RandomUsers(rng, 1 + rng.UniformInt(20));
    const WeightedSketch sketch = hasher.QuantumSketch(0, users, {});
    const MinHashSignature values = WeightedMinHasher::Values(sketch);
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
    EXPECT_EQ(WeightedMinHasher::FromValues(values), sketch);
    EXPECT_EQ(WeightedMinHasher::Values(WeightedMinHasher::FromValues(values)),
              values);
  }
}

TEST(WeightedMinHashTest, UnweightedResemblanceEqualsJaccardEstimate) {
  Rng rng(66);
  const std::size_t p = 8;
  WeightedMinHasher hasher(p, 88, /*weighted=*/false);
  for (int trial = 0; trial < 50; ++trial) {
    const auto base = RandomUsers(rng, 10 + rng.UniformInt(30));
    std::vector<UserId> a(base.begin(), base.begin() + base.size() / 2 + 1);
    std::vector<UserId> b(base.begin() + base.size() / 3, base.end());
    const WeightedSketch sa = hasher.QuantumSketch(0, a, {});
    const WeightedSketch sb = hasher.QuantumSketch(0, b, {});
    EXPECT_DOUBLE_EQ(
        WeightedMinHasher::EstimateResemblance(sa, sb, p),
        EstimateJaccard(WeightedMinHasher::Values(sa),
                        WeightedMinHasher::Values(sb), p));
  }
}

TEST(WeightedMinHashTest, WeightedResemblanceEndpoints) {
  WeightedMinHasher hasher(4, 99, /*weighted=*/true);
  const std::vector<UserId> users = {1, 2, 3, 4, 5, 6};
  const std::vector<std::uint32_t> counts = {3, 1, 4, 1, 5, 9};
  const WeightedSketch a = hasher.QuantumSketch(2, users, counts);
  EXPECT_DOUBLE_EQ(WeightedMinHasher::EstimateResemblance(a, a, 4), 1.0);
  const WeightedSketch disjoint =
      hasher.QuantumSketch(2, {100, 200, 300}, {2, 2, 2});
  EXPECT_DOUBLE_EQ(WeightedMinHasher::EstimateResemblance(a, disjoint, 4),
                   0.0);
  EXPECT_DOUBLE_EQ(
      WeightedMinHasher::EstimateResemblance(a, WeightedSketch{}, 4), 0.0);
}

TEST(WeightedMinHashTest, HeavySharedUsersRaiseWeightedResemblance) {
  // Statistical: two keyword pairs with identical set structure (5 shared
  // of 15 each), but one pair's shared users carry 20x the message count.
  // The weighted resemblance — a weight-biased union sample — must rank
  // the heavy-overlap pair above the light-overlap pair on average, which
  // is exactly the frequency dimension the unweighted estimate lacks.
  Rng rng(77);
  const std::size_t p = 8;
  double heavy_sum = 0.0;
  double light_sum = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    WeightedMinHasher hasher(p, rng.Next(), /*weighted=*/true);
    const auto users = RandomUsers(rng, 25);
    // users[0..4] shared; [5..14] only in A; [15..24] only in B.
    std::vector<UserId> a(users.begin(), users.begin() + 15);
    std::vector<UserId> b(users.begin(), users.begin() + 5);
    b.insert(b.end(), users.begin() + 15, users.end());
    for (const bool heavy : {true, false}) {
      std::vector<std::uint32_t> ca(a.size(), 1), cb(b.size(), 1);
      for (std::size_t i = 0; i < 5; ++i) {
        ca[i] = cb[i] = heavy ? 20 : 1;
      }
      const double r = WeightedMinHasher::EstimateResemblance(
          hasher.QuantumSketch(0, a, ca), hasher.QuantumSketch(0, b, cb), p);
      (heavy ? heavy_sum : light_sum) += r;
    }
  }
  EXPECT_GT(heavy_sum / trials, light_sum / trials + 0.15);
}

}  // namespace
}  // namespace scprt::akg
