// Mergeable bottom-p Min-Hash signatures: Sketch's equivalence to the
// paper's bottom-p signature (a brute-force reference),
// the Combine algebra (exact on overlapping inputs, associative,
// commutative, empty identity), and partitioned merges matching the
// whole-set signature bit for bit at 1/2/8 partitions through
// CombineAll.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "akg/minhash.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/types.h"

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

// The paper's signature by brute force: the p smallest distinct
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

TEST(MinHasherTest, SketchMatchesBruteForceBottomP) {
  // Same p, same seed: the signature must be bit-identical to the paper's
  // bottom-p signature of the same id set, for p = 1, the empty set, sets
  // smaller than p and sets of 1000+ users (where nearly every key loses
  // to the cached heap top).
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t p = 2 + rng.UniformInt(8);
    const std::uint64_t seed = rng.Next();
    const auto users = RandomUsers(rng, 1 + rng.UniformInt(40));
    EXPECT_EQ(MinHasher(p, seed).Sketch(users),
              BottomPReference(p, seed, users));
  }
  for (const std::size_t p : {1u, 2u, 8u, 16u}) {
    const std::uint64_t seed = rng.Next();
    const MinHasher hasher(p, seed);
    EXPECT_TRUE(hasher.Sketch({}).empty()) << "p " << p;
    for (const std::size_t count : {1u, 5u, 1000u, 1500u}) {
      const auto users = RandomUsers(rng, count);
      EXPECT_EQ(hasher.Sketch(users), BottomPReference(p, seed, users))
          << "p " << p << " users " << count;
    }
  }
}

TEST(MinHasherTest, CombineAlgebra) {
  // Exactness on key-overlapping inputs (a shared user claims one slot),
  // associativity, commutativity and the empty identity over random
  // signatures.
  Rng rng(22);
  const std::size_t p = 4;
  const MinHasher hasher(p, 99);
  for (int trial = 0; trial < 100; ++trial) {
    // Users drawn from a small range, so the three sets overlap often.
    std::vector<std::vector<UserId>> sets(3);
    for (auto& set : sets) {
      for (UserId u = 0; u < 16; ++u) {
        if (rng.UniformInt(3) == 0) set.push_back(u);
      }
    }
    const MinHashSignature a = hasher.Sketch(sets[0]);
    const MinHashSignature b = hasher.Sketch(sets[1]);
    const MinHashSignature c = hasher.Sketch(sets[2]);
    std::vector<UserId> ab = sets[0];
    ab.insert(ab.end(), sets[1].begin(), sets[1].end());
    std::sort(ab.begin(), ab.end());
    ab.erase(std::unique(ab.begin(), ab.end()), ab.end());
    using M = MinHasher;
    EXPECT_EQ(M::Combine(a, b, p), hasher.Sketch(ab));
    EXPECT_EQ(M::Combine(M::Combine(a, b, p), c, p),
              M::Combine(a, M::Combine(b, c, p), p));
    EXPECT_EQ(M::Combine(a, b, p), M::Combine(b, a, p));
    EXPECT_EQ(M::Combine(a, MinHashSignature{}, p), a);
    EXPECT_EQ(M::Combine(MinHashSignature{}, a, p), a);
  }
}

TEST(MinHasherTest, CombineAllCases) {
  const MinHasher hasher(3, 7);
  const MinHashSignature one =
      hasher.Sketch(std::vector<UserId>{1, 2, 3, 4, 5});
  const MinHashSignature two = hasher.Sketch(std::vector<UserId>{6, 7});
  const MinHashSignature three = hasher.Sketch(std::vector<UserId>{8});
  const MinHashSignature whole =
      hasher.Sketch(std::vector<UserId>{1, 2, 3, 4, 5, 6, 7, 8});
  // No parts: the empty signature, Combine's identity.
  EXPECT_TRUE(MinHasher::CombineAll({}, 3).empty());
  // One part comes back unchanged.
  const std::vector<MinHashSignature> single = {one};
  EXPECT_EQ(MinHasher::CombineAll(single, 3), one);
  // Several parts fold to the signature of their union.
  const std::vector<MinHashSignature> parts = {one, two, three};
  EXPECT_EQ(MinHasher::CombineAll(parts, 3), whole);
  // A part repeated or overlapping another claims no extra slot.
  const std::vector<MinHashSignature> repeated = {one, two, one, three};
  EXPECT_EQ(MinHasher::CombineAll(repeated, 3), whole);
}

// The tentpole property: a keyword's users split across shards, sketched
// per part and folded, must equal the whole-set signature bit for bit —
// for any partition count and any part order.
TEST(MinHasherTest, ShardMergeEqualsWholeSetSketch) {
  Rng rng(33);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    for (int trial = 0; trial < 30; ++trial) {
      const std::size_t p = 2 + rng.UniformInt(7);
      const MinHasher hasher(p, rng.Next());
      const auto users = RandomUsers(rng, 1 + rng.UniformInt(60));
      const MinHashSignature whole = hasher.Sketch(users);

      std::vector<std::vector<UserId>> part_users(shards);
      for (const UserId user : users) part_users[user % shards].push_back(user);
      std::vector<MinHashSignature> parts;
      for (const auto& part : part_users) {
        parts.push_back(hasher.Sketch(part));
      }
      EXPECT_EQ(MinHasher::CombineAll(parts, p), whole);
      std::reverse(parts.begin(), parts.end());
      EXPECT_EQ(MinHasher::CombineAll(parts, p), whole);
      rng.Shuffle(parts);
      EXPECT_EQ(MinHasher::CombineAll(parts, p), whole);
    }
  }
}

}  // namespace
}  // namespace scprt::akg
