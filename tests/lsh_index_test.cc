// The LSH half of the event store's test battery: end-to-end index
// behavior (insert/commit/query round trips, visibility, idempotency,
// dictionary independence), a recall property suite holding the measured
// band-collision rate to the (b, r) S-curve prediction across three band
// shapes, and the PR 6 regression the re-rank rides on — a user spamming
// one keyword cannot promote a past event, because the stored sketch keys
// are one-per-user.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "akg/minhash.h"
#include "common/random.h"
#include "durability/error.h"
#include "store/lsh_index.h"

namespace scprt::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("scprt_lsh_test_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> Keywords(const std::string& stem, int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(stem + "_" + std::to_string(i));
  }
  return out;
}

double ExactJaccard(std::vector<std::string> a, std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<std::string> inter, uni;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(uni));
  return uni.empty() ? 0.0
                     : static_cast<double>(inter.size()) /
                           static_cast<double>(uni.size());
}

// ---- Basic round trips -------------------------------------------------

TEST(LshIndexTest, InsertCommitQueryRoundTrip) {
  TempDir dir("roundtrip");
  LshOptions options;
  options.sync = false;
  auto index = LshIndex::Create(dir.path(), options);
  ASSERT_NE(index, nullptr);

  const std::vector<std::string> keywords = Keywords("storm", 6);
  ASSERT_TRUE(index->Insert(7, 3, 1, 2.5, 42, keywords, {}, 0).ok());
  ASSERT_TRUE(index->Commit().ok());

  std::vector<QueryResult> results;
  ASSERT_TRUE(index->Query(keywords, 10, &results).ok());
  ASSERT_EQ(results.size(), 1u);
  const StoredEvent& e = results[0].event;
  EXPECT_EQ(e.cluster_id, 7u);
  EXPECT_EQ(e.quantum, 3);
  EXPECT_EQ(e.born_at, 1);
  EXPECT_DOUBLE_EQ(e.rank, 2.5);
  EXPECT_EQ(e.support, 42u);
  EXPECT_EQ(e.keywords, keywords);
  EXPECT_DOUBLE_EQ(results[0].jaccard, 1.0);
}

TEST(LshIndexTest, UncommittedInsertsAreInvisible) {
  TempDir dir("visibility");
  LshOptions options;
  options.sync = false;
  auto index = LshIndex::Create(dir.path(), options);
  ASSERT_NE(index, nullptr);

  const std::vector<std::string> keywords = Keywords("quake", 5);
  ASSERT_TRUE(index->Insert(1, 0, 0, 1.0, 5, keywords, {}, 0).ok());
  std::vector<QueryResult> results;
  ASSERT_TRUE(index->Query(keywords, 10, &results).ok());
  EXPECT_TRUE(results.empty()) << "uncommitted insert leaked into a query";
  ASSERT_TRUE(index->Commit().ok());
  ASSERT_TRUE(index->Query(keywords, 10, &results).ok());
  EXPECT_EQ(results.size(), 1u);
}

TEST(LshIndexTest, InsertIsIdempotentOnClusterAndQuantum) {
  TempDir dir("idempotent");
  LshOptions options;
  options.sync = false;
  auto index = LshIndex::Create(dir.path(), options);
  ASSERT_NE(index, nullptr);

  const std::vector<std::string> keywords = Keywords("flood", 4);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(index->Insert(5, 9, 2, 1.0, 8, keywords, {}, 0).ok());
  }
  // Same cluster at a different quantum is a distinct event.
  ASSERT_TRUE(index->Insert(5, 11, 2, 1.1, 9, keywords, {}, 0).ok());
  ASSERT_TRUE(index->Commit().ok());
  EXPECT_EQ(index->committed_events(), 2u);

  std::vector<QueryResult> results;
  ASSERT_TRUE(index->Query(keywords, 10, &results).ok());
  EXPECT_EQ(results.size(), 2u);
}

TEST(LshIndexTest, QueryOutlivesTheWritingProcess) {
  // Spellings (not dictionary ids) drive the signature: a fresh read-only
  // handle with no dictionary in sight must answer with the same ranking.
  TempDir dir("reopen");
  LshOptions options;
  options.sync = false;
  std::vector<QueryResult> before;
  {
    auto index = LshIndex::Create(dir.path(), options);
    ASSERT_NE(index, nullptr);
    for (int c = 0; c < 6; ++c) {
      ASSERT_TRUE(index
                      ->Insert(c, c, 0, 1.0, 10,
                               Keywords("ev" + std::to_string(c), 5), {}, 0)
                      .ok());
    }
    ASSERT_TRUE(index->Commit().ok());
    ASSERT_TRUE(index->Query(Keywords("ev2", 5), 3, &before).ok());
    ASSERT_FALSE(before.empty());
  }
  durability::Error error;
  auto reader = LshIndex::OpenReadOnly(dir.path(), 0, &error);
  ASSERT_NE(reader, nullptr) << error.ToString();
  std::vector<QueryResult> after;
  ASSERT_TRUE(reader->Query(Keywords("ev2", 5), 3, &after).ok());
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].event.cluster_id, before[i].event.cluster_id);
    EXPECT_DOUBLE_EQ(after[i].jaccard, before[i].jaccard);
  }
  // And the reader refuses writes with a typed error.
  EXPECT_EQ(reader->Insert(100, 0, 0, 1.0, 1, {"x"}, {}, 0).code,
            durability::ErrorCode::kIo);
}

TEST(LshIndexTest, IdenticalKeywordSetIsAlwaysTopOne) {
  // Exact-match top-1: an event whose keyword set equals the query's has
  // signature identity in every band, so it collides with probability 1
  // and re-ranks at jaccard 1.0 above every partial match.
  TempDir dir("exact");
  LshOptions options;
  options.sync = false;
  auto index = LshIndex::Create(dir.path(), options);
  ASSERT_NE(index, nullptr);

  const std::vector<std::string> target = Keywords("target", 8);
  ASSERT_TRUE(index->Insert(1, 0, 0, 1.0, 10, target, {}, 0).ok());
  // Decoys sharing 6 of 8 keywords.
  for (int c = 2; c < 10; ++c) {
    std::vector<std::string> decoy(target.begin(), target.begin() + 6);
    decoy.push_back("decoy" + std::to_string(c) + "_a");
    decoy.push_back("decoy" + std::to_string(c) + "_b");
    ASSERT_TRUE(index->Insert(c, c, 0, 1.0, 10, decoy, {}, 0).ok());
  }
  ASSERT_TRUE(index->Commit().ok());

  std::vector<QueryResult> results;
  ASSERT_TRUE(index->Query(target, 5, &results).ok());
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].event.cluster_id, 1u);
  EXPECT_DOUBLE_EQ(results[0].jaccard, 1.0);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(results[i].jaccard, 1.0);
  }
}

// ---- Recall vs the S-curve ---------------------------------------------

struct BandShape {
  std::uint32_t bands;
  std::uint32_t rows;
};

/// P(at least one band collides) for keyword Jaccard J under (b, r):
/// a band collides when all r sampled positions agree (each ~ Bernoulli(J)
/// under the min-hash position-agreement model).
double SCurve(double jaccard, const BandShape& shape) {
  return 1.0 -
         std::pow(1.0 - std::pow(jaccard, shape.rows), shape.bands);
}

TEST(LshIndexTest, RecallMatchesSCurveAcrossBandShapes) {
  // For each band shape: plant event/query pairs at controlled keyword
  // overlap, measure the fraction of queries whose planted partner shows
  // up at all, and hold it against the S-curve prediction with slack. At
  // J >= 0.5 every tested shape predicts high recall; the planted partner
  // must also win top-1 against unrelated chaff.
  const std::vector<BandShape> shapes = {{8, 2}, {16, 2}, {6, 3}};
  constexpr int kPairs = 60;
  constexpr int kUniverse = 20;  // keywords per event
  for (const BandShape& shape : shapes) {
    TempDir dir("recall" + std::to_string(shape.bands) + "x" +
                std::to_string(shape.rows));
    LshOptions options;
    options.bands = shape.bands;
    options.rows = shape.rows;
    options.sync = false;
    auto index = LshIndex::Create(dir.path(), options);
    ASSERT_NE(index, nullptr);

    // Chaff the planted pairs must out-rank.
    for (int c = 0; c < 40; ++c) {
      ASSERT_TRUE(index
                      ->Insert(1'000 + c, c, 0, 1.0, 5,
                               Keywords("chaff" + std::to_string(c), 6), {},
                               0)
                      .ok());
    }

    struct Pair {
      std::vector<std::string> stored;
      std::vector<std::string> query;
      double jaccard;
    };
    std::vector<Pair> pairs;
    Rng rng(0x5C0 + shape.bands * 16 + shape.rows);
    for (int p = 0; p < kPairs; ++p) {
      // Overlap k of kUniverse keywords: J = k / (2*kUniverse - k).
      // k = 14..20 spans J ~ 0.54 .. 1.0.
      const int overlap = 14 + static_cast<int>(rng.UniformInt(7));
      Pair pair;
      const std::string stem = 'p' + std::to_string(p);
      for (int i = 0; i < kUniverse; ++i) {
        pair.stored.push_back(stem + "_s" + std::to_string(i));
      }
      for (int i = 0; i < overlap; ++i) pair.query.push_back(pair.stored[i]);
      for (int i = overlap; i < kUniverse; ++i) {
        pair.query.push_back(stem + "_q" + std::to_string(i));
      }
      pair.jaccard = ExactJaccard(pair.stored, pair.query);
      ASSERT_GE(pair.jaccard, 0.5);
      ASSERT_TRUE(
          index->Insert(p, p, 0, 1.0, 10, pair.stored, {}, 0).ok());
      pairs.push_back(std::move(pair));
    }
    ASSERT_TRUE(index->Commit().ok());

    int recalled = 0, top1 = 0;
    double predicted_sum = 0.0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      std::vector<QueryResult> results;
      ASSERT_TRUE(index->Query(pairs[p].query, 10, &results).ok());
      predicted_sum += SCurve(pairs[p].jaccard, shape);
      bool found = false;
      for (const QueryResult& r : results) {
        if (r.event.cluster_id == p) {
          found = true;
          break;
        }
      }
      if (found) {
        ++recalled;
        if (results[0].event.cluster_id == p) ++top1;
      }
    }
    const double measured = static_cast<double>(recalled) / kPairs;
    const double predicted = predicted_sum / kPairs;
    // The S-curve is the expectation over hash draws; with 60 pairs allow
    // a generous one-sided slack below it. All three shapes predict
    // > 0.85 at J in [0.54, 1.0].
    EXPECT_GE(measured, predicted - 0.15)
        << "shape " << shape.bands << "x" << shape.rows << ": measured "
        << measured << " vs predicted " << predicted;
    // A recalled partner at J >= 0.5 should essentially always beat the
    // disjoint chaff (whose true Jaccard with the query is 0).
    EXPECT_GE(top1, recalled * 9 / 10)
        << "shape " << shape.bands << "x" << shape.rows;
  }
}

TEST(LshIndexTest, SketchMatchFractionTracksJaccard) {
  // The re-rank statistic itself: the fraction of matching signature
  // positions is an unbiased estimator of the keyword Jaccard, so over
  // many planted pairs the mean error must be small and monotonicity must
  // hold between far-apart Jaccard levels.
  TempDir dir("estimator");
  LshOptions options;
  options.bands = 16;
  options.rows = 4;  // K = 64 positions — tighter estimates
  options.sync = false;
  auto index = LshIndex::Create(dir.path(), options);
  ASSERT_NE(index, nullptr);

  Rng rng(0xE571);
  double bias_sum = 0.0;
  int samples = 0;
  for (int round = 0; round < 40; ++round) {
    const int universe = 24;
    const int overlap = 6 + static_cast<int>(rng.UniformInt(19));
    std::vector<std::string> a, b;
    const std::string stem = 'r' + std::to_string(round);
    for (int i = 0; i < universe; ++i) {
      a.push_back(stem + "_a" + std::to_string(i));
    }
    for (int i = 0; i < overlap; ++i) b.push_back(a[i]);
    for (int i = overlap; i < universe; ++i) {
      b.push_back(stem + "_b" + std::to_string(i));
    }
    const akg::MinHashSignature sa = index->SketchKeywords(a);
    const akg::MinHashSignature sb = index->SketchKeywords(b);
    ASSERT_EQ(sa.size(), sb.size());
    int match = 0;
    for (std::size_t i = 0; i < sa.size(); ++i) match += sa[i] == sb[i];
    const double estimate =
        static_cast<double>(match) / static_cast<double>(sa.size());
    bias_sum += estimate - ExactJaccard(a, b);
    ++samples;
  }
  EXPECT_LT(std::abs(bias_sum / samples), 0.06)
      << "position-match fraction is a biased Jaccard estimator";
}

// ---- The PR 6 regression: spam cannot promote a past event -------------

TEST(LshIndexTest, KeywordSpamCannotPromoteAPastEvent) {
  // Two events with identical keyword sets (so jaccard ties exactly) but
  // different audiences: a genuine event with many distinct users, and a
  // "spam" event whose sketch was built from ONE user posting thousands of
  // messages. The re-rank tie-break is the distinct-user estimate from the
  // sketch KEYS — one key per user no matter the message count — so the
  // genuine event must stay on top.
  TempDir dir("spam");
  LshOptions options;
  options.sync = false;
  auto index = LshIndex::Create(dir.path(), options);
  ASSERT_NE(index, nullptr);

  constexpr std::size_t kSketchP = 8;
  const akg::MinHasher hasher(kSketchP, /*seed=*/99);
  const std::vector<std::string> keywords = Keywords("contested", 6);

  // Genuine: 500 distinct users, one message each.
  std::vector<UserId> crowd;
  for (UserId u = 1; u <= 500; ++u) crowd.push_back(u);
  const akg::MinHashSignature genuine = hasher.Sketch(crowd);

  // Spam: one user, 100k messages. The canonical aggregate collapses the
  // user's messages to one occurrence per quantum, so the sketch sees ONE
  // user.
  const akg::MinHashSignature spam = hasher.Sketch(std::vector<UserId>{777});

  ASSERT_TRUE(
      index->Insert(1, 5, 0, 1.0, 500, keywords, genuine, kSketchP).ok());
  ASSERT_TRUE(
      index->Insert(2, 9, 0, 1.0, 1, keywords, spam, kSketchP).ok());
  ASSERT_TRUE(index->Commit().ok());

  std::vector<QueryResult> results;
  ASSERT_TRUE(index->Query(keywords, 2, &results).ok());
  ASSERT_EQ(results.size(), 2u);
  // Identical keyword sets => identical signatures => tied jaccard. The
  // quantum-desc tie-break would favor the newer spam event (quantum 9)
  // if support estimation were fooled — the test has teeth.
  EXPECT_DOUBLE_EQ(results[0].jaccard, results[1].jaccard);
  EXPECT_EQ(results[0].event.cluster_id, 1u)
      << "a single spamming user out-ranked 500 genuine users";
  EXPECT_GT(results[0].support_estimate, results[1].support_estimate);
  // The spam event's estimate stays ~1 user despite 100k messages.
  EXPECT_LT(results[1].support_estimate, 2.5);
}

TEST(LshIndexTest, SpamImmunityHoldsAfterSketchMerge) {
  // Same property through the merge path quanta actually take: the spam
  // user's repeated appearances across quanta still collapse to one key.
  constexpr std::size_t kSketchP = 8;
  const akg::MinHasher hasher(kSketchP, 99);
  akg::MinHashSignature merged;
  for (QuantumIndex q = 0; q < 50; ++q) {
    merged = akg::MinHasher::Combine(
        merged, hasher.Sketch(std::vector<UserId>{777}), kSketchP);
  }
  const double estimate =
      akg::MinHasher::EstimateDistinctUsers(merged, kSketchP);
  EXPECT_LT(estimate, 2.5) << "50 quanta of spam inflated one user to "
                           << estimate;
}

// ---- Concurrency (the TSan job drives this) ----------------------------

TEST(LshIndexTest, QueriesRunConcurrentlyWithIngest) {
  // One writer inserting and committing, two readers querying the same
  // handle the whole time. The index serializes internally; the contract
  // under test is that a query never sees a torn insert — every result it
  // does return decodes cleanly and is committed.
  TempDir dir("concurrent");
  LshOptions options;
  options.sync = false;
  auto index = LshIndex::Create(dir.path(), options);
  ASSERT_NE(index, nullptr);

  constexpr int kEvents = 120;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&index, &done, &failures, t] {
      Rng rng(0xC0'00 + t);
      while (!done.load(std::memory_order_acquire)) {
        const int target = static_cast<int>(rng.UniformInt(kEvents));
        std::vector<QueryResult> results;
        durability::Error e = index->Query(
            Keywords('c' + std::to_string(target), 5), 5, &results);
        if (!e.ok()) {
          ++failures;
          continue;
        }
        for (const QueryResult& r : results) {
          // Committed-only visibility: a decoded result is fully formed.
          if (r.event.keywords.empty()) ++failures;
        }
      }
    });
  }
  for (int c = 0; c < kEvents; ++c) {
    ASSERT_TRUE(index
                    ->Insert(c, c, 0, 1.0, 10,
                             Keywords('c' + std::to_string(c), 5), {}, 0)
                    .ok());
    if (c % 4 == 3) {
      ASSERT_TRUE(index->Commit().ok());
    }
  }
  ASSERT_TRUE(index->Commit().ok());
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  std::vector<QueryResult> results;
  ASSERT_TRUE(index->Query(Keywords("c7", 5), 3, &results).ok());
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].event.cluster_id, 7u);
}

TEST(LshIndexTest, ReadOnlyHandleQueriesAgainstALiveWriter) {
  // A separate read-only handle shares the page file with a writer that
  // commits after every insert, so each commit rewrites directory pages in
  // place while the reader may be reading them. A torn copy fails its page
  // CRC; the reader must re-read it rather than fail the query.
  TempDir dir("live_reader");
  LshOptions options;
  options.sync = false;
  auto writer = LshIndex::Create(dir.path(), options);
  ASSERT_NE(writer, nullptr);

  constexpr int kEvents = 2000;
  std::atomic<bool> done{false};
  // Written by the reader thread only; read after the join.
  int failures = 0;
  std::string first_failure;
  auto record = [&](const char* op, const durability::Error& error) {
    if (failures++ == 0) first_failure = op + (": " + error.ToString());
  };
  std::thread reader([&] {
    std::vector<QueryResult> results;
    int target = 0;
    while (!done.load(std::memory_order_acquire)) {
      durability::Error error;
      auto index = LshIndex::OpenReadOnly(dir.path(), 0, &error);
      if (index == nullptr) {
        record("open", error);
        continue;
      }
      for (int i = 0; i < 20; ++i) {
        const std::string prefix = 'r' + std::to_string(++target % kEvents);
        const durability::Error e =
            index->Query(Keywords(prefix, 3), 5, &results);
        if (!e.ok()) record("query", e);
      }
    }
  });
  for (int c = 0; c < kEvents; ++c) {
    // No ASSERT here: returning early would destroy the joinable reader.
    // A unique keyword set per event spreads the inserts over every
    // directory page.
    const std::string prefix = 'r' + std::to_string(c);
    if (!writer->Insert(c, c, 0, 1.0, 3, Keywords(prefix, 3), {}, 0).ok() ||
        !writer->Commit().ok()) {
      ADD_FAILURE() << "write " << c << " failed";
      break;
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(failures, 0) << "first failure: " << first_failure;
}

// ---- Shape validation --------------------------------------------------

TEST(LshIndexTest, RejectsOversizedBandConfiguration) {
  TempDir dir("shape");
  LshOptions options;
  options.bands = 16;
  options.rows = 8;  // K = 128 > 64
  durability::Error error;
  EXPECT_EQ(LshIndex::Create(dir.path(), options, &error), nullptr);
  EXPECT_EQ(error.code, durability::ErrorCode::kStateMismatch)
      << error.ToString();
}

TEST(LshIndexTest, PersistedShapeWinsOverCallerOptions) {
  TempDir dir("persisted");
  LshOptions create_options;
  create_options.bands = 6;
  create_options.rows = 3;
  create_options.sync = false;
  { ASSERT_NE(LshIndex::Create(dir.path(), create_options), nullptr); }
  LshOptions open_options;
  open_options.bands = 32;  // ignored: the stored shape governs
  open_options.rows = 2;
  open_options.sync = false;
  auto index = LshIndex::Open(dir.path(), open_options);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->bands(), 6u);
  EXPECT_EQ(index->rows(), 3u);
}

}  // namespace
}  // namespace scprt::store
