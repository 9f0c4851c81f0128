// Tests for common/: hashing, RNG, Zipf sampling, union-find, the
// fixed-offset little-endian field codec and the JSON string encoder.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/random.h"
#include "common/union_find.h"
#include "ingest/jsonl.h"

namespace scprt {
namespace {

TEST(SplitMix64Test, MixesAndSeparates) {
  EXPECT_NE(SplitMix64(0), 0u);
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(SplitMix64(i));
  EXPECT_EQ(outputs.size(), 1000u);  // bijective on distinct inputs
}

TEST(HashCombineTest, OrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_NE(HashCombine(0, 0), 0u);
}

TEST(SeededHashTest, SeedsGiveDistinctFunctions) {
  SeededHash h1(1), h2(2);
  int differing = 0;
  for (std::uint64_t x = 0; x < 64; ++x) {
    if (h1(x) != h2(x)) ++differing;
  }
  EXPECT_EQ(differing, 64);
}

TEST(PairHashTest, DistinguishesPairs) {
  PairHash h;
  EXPECT_NE(h(std::pair<int, int>(1, 2)), h(std::pair<int, int>(2, 1)));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 5 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) heads += rng.Bernoulli(0.3);
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.Poisson(3.5);
  EXPECT_NEAR(sum / 20000, 3.5, 0.1);
}

TEST(RngTest, PoissonLargeLambdaApproximation) {
  Rng rng(19);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) sum += rng.Poisson(100.0);
  EXPECT_NEAR(sum / 5000, 100.0, 2.0);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(ZipfSamplerTest, RankZeroMostFrequent) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfSamplerTest, FrequenciesFollowPowerLaw) {
  Rng rng(31);
  ZipfSampler zipf(50, 1.0);
  const int n = 200000;
  std::vector<int> counts(50, 0);
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  // Under Zipf(1), count(rank 1) / count(rank 2) ~ 2.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.25);
}

TEST(ZipfSamplerTest, SingleOutcome) {
  Rng rng(37);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(UnionFindTest, BasicUnions) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.Same(0, 1));
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Same(0, 1));
  EXPECT_FALSE(uf.Union(0, 1));  // already joined
  EXPECT_EQ(uf.SetSize(0), 2u);
  uf.Union(2, 3);
  uf.Union(1, 3);
  EXPECT_TRUE(uf.Same(0, 2));
  EXPECT_EQ(uf.SetSize(3), 4u);
  EXPECT_FALSE(uf.Same(0, 4));
}

TEST(UnionFindTest, TransitiveChain) {
  UnionFind uf(100);
  for (std::size_t i = 0; i + 1 < 100; ++i) uf.Union(i, i + 1);
  EXPECT_TRUE(uf.Same(0, 99));
  EXPECT_EQ(uf.SetSize(50), 100u);
}

TEST(LittleEndianFieldTest, StoresLeastSignificantByteFirst) {
  char buf[8] = {};
  StoreU16(buf, 0xBEEF);
  EXPECT_EQ(std::string(buf, 2), std::string("\xEF\xBE", 2));
  StoreU32(buf, 0x01020304u);
  EXPECT_EQ(std::string(buf, 4), std::string("\x04\x03\x02\x01", 4));
  StoreU64(buf, 0x8877665544332211ull);
  EXPECT_EQ(std::string(buf, 8),
            std::string("\x11\x22\x33\x44\x55\x66\x77\x88", 8));
}

TEST(LittleEndianFieldTest, LoadsRoundTripStoresAndMatchTheStreamCodec) {
  char buf[8];
  for (const std::uint64_t v :
       {0ull, 1ull, 0xFFull, 0x8000'0000'0000'0000ull, 0xFFFF'FFFF'FFFF'FFFFull,
        0x0123'4567'89AB'CDEFull}) {
    StoreU16(buf, static_cast<std::uint16_t>(v));
    EXPECT_EQ(LoadU16(buf), static_cast<std::uint16_t>(v));
    StoreU32(buf, static_cast<std::uint32_t>(v));
    EXPECT_EQ(LoadU32(buf), static_cast<std::uint32_t>(v));
    StoreU64(buf, v);
    EXPECT_EQ(LoadU64(buf), v);

    BinaryWriter writer;
    writer.U32(static_cast<std::uint32_t>(v));
    writer.U64(v);
    EXPECT_EQ(LoadU32(writer.data().data()), static_cast<std::uint32_t>(v));
    EXPECT_EQ(LoadU64(writer.data().data() + 4), v);
    BinaryReader reader(writer.data());
    EXPECT_EQ(reader.U32(), static_cast<std::uint32_t>(v));
    EXPECT_EQ(reader.U64(), v);
    EXPECT_TRUE(reader.ok());
  }
}

// The encoder's output must decode back to the input through the ingest
// frontend's JSONL parser (the export -> ingest round trip).
TEST(JsonlTest, EscapeRoundTripsThroughParser) {
  const std::string nasty = "tab\there \"quotes\" back\\slash\nnewline \x01";
  std::string line = "{\"user\": 5, \"text\": ";
  AppendJsonString(nasty, line);
  line += "}";
  ingest::JsonlRecord record;
  ASSERT_TRUE(ingest::ParseJsonlRecord(line, record));
  EXPECT_EQ(record.text, nasty);
}

}  // namespace
}  // namespace scprt
