// Bottom-p Min-Hash signatures for cheap edge-correlation screening
// (Section 3.2.2).
//
// The paper's unweighted scheme hashes each user id once with a seeded
// 64-bit hash; a keyword's signature is the p smallest distinct hash
// values over its window id set. Two keywords sharing a signature value
// are candidate edges (SharesValue); the bottom-p intersection also yields
// the standard bottom-k Jaccard estimate (EstimateJaccard).
//
// WeightedMinHasher builds those signatures as mergeable sketches,
// incrementally per quantum. Each sketch entry carries the user's hash key
// and a rank score; a keyword's window sketch is the pairwise Combine of
// its per-quantum sketches rather than a rebuild from the folded window id
// set. In unweighted mode the score is a monotone function of the key, so
// the sketch's Values() are exactly the paper's signature: the p smallest
// distinct SeededHash values of the id set. In weighted mode the score is
// an exponential draw scaled by the user's per-quantum message count:
// min-merging the draws across quanta realizes Exp(total count), so
// heavier users sink to the bottom of the sketch and the screen gains the
// frequency dimension.
//
// Combine is exact under truncation (a merged sketch equals the sketch of
// the merged input, by the usual KMV argument), hence associative and
// commutative — which is what lets per-shard, per-quantum sketches reduce
// through a tree (common/parallel.h TreeReduce) in any grouping with
// bit-identical results. The only precondition is that one (user, quantum)
// occurrence is never split across the parts being merged; keyword-sharded
// aggregation satisfies it by construction.

#ifndef SCPRT_AKG_MINHASH_H_
#define SCPRT_AKG_MINHASH_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace scprt::akg {

/// A keyword's signature: up to p hash values, sorted ascending.
using MinHashSignature = std::vector<std::uint64_t>;

/// One weighted-sketch slot: the user's hash key (SeededHash of the id —
/// bijective, so distinct users never collide) and its rank score.
struct SketchEntry {
  std::uint64_t key = 0;
  double score = 0.0;
  friend bool operator==(const SketchEntry&, const SketchEntry&) = default;
};

/// A mergeable bottom-p sketch: up to p entries with distinct keys, sorted
/// ascending by (score, key).
using WeightedSketch = std::vector<SketchEntry>;

/// The sketch order: ascending (score, key). The key tie-break makes the
/// order total, so sketches with equal content are bit-identical.
bool SketchOrderLess(const SketchEntry& a, const SketchEntry& b);

/// A keyword's cached signature state: the plain sorted values used for
/// screening and bucket joins, plus the sketch they were extracted from
/// (carries the scores the weighted EC estimate needs).
struct KeywordSignature {
  MinHashSignature values;
  WeightedSketch sketch;
};

/// True if the sorted signatures share at least one value (the screen).
bool SharesValue(const MinHashSignature& a, const MinHashSignature& b);

/// Bottom-k Jaccard estimate: |X n A n B| / |X| where X is the bottom-p of
/// A u B under set semantics (duplicate values within a list count once).
/// Unbiased for |A u B| >= p; when both signatures are complete sets
/// (|A| < p and |B| < p), X is the whole union and the estimate is the
/// exact Jaccard. Returns 0 on empty input.
double EstimateJaccard(const MinHashSignature& a, const MinHashSignature& b,
                       std::size_t p);

/// Builds and merges per-quantum weighted sketches. Stateless apart from
/// the configuration (p, seed, weighted flag); safe to share across
/// threads.
class WeightedMinHasher {
 public:
  /// `p` >= 1 sketch size; `seed` fixes the key hash (SeededHash(seed) of
  /// the user id); `weighted` selects count-scaled exponential scores over
  /// the unweighted key-derived scores.
  WeightedMinHasher(std::size_t p, std::uint64_t seed, bool weighted);

  /// Sketch of one keyword's occurrences in `quantum`: `users` must be
  /// distinct (the canonical aggregate's invariant); `counts`, aligned with
  /// `users`, carries each user's message count and is only read in
  /// weighted mode (may be empty otherwise).
  WeightedSketch QuantumSketch(QuantumIndex quantum,
                               const std::vector<UserId>& users,
                               const std::vector<std::uint32_t>& counts) const;

  /// Merges two sketches: minimum score per key, bottom-p overall. Exact
  /// (equals the sketch of the merged inputs), associative and commutative;
  /// the identity is the empty sketch.
  static WeightedSketch Combine(const WeightedSketch& a,
                                const WeightedSketch& b, std::size_t p);

  /// Reduces `parts` with Combine in the fixed pairwise-tree shape
  /// (TreeReduce, serial). Any grouping gives the same result; the fixed
  /// shape makes that property cheap to audit.
  static WeightedSketch CombineTree(std::vector<WeightedSketch> parts,
                                    std::size_t p);

  /// The sketch's keys, sorted ascending — the screening signature. In
  /// unweighted mode, the p smallest distinct SeededHash(seed) values of
  /// the id set.
  static MinHashSignature Values(const WeightedSketch& sketch);

  /// Reconstructs the unweighted sketch carrying these signature values
  /// (score is a pure function of the key) — the inverse of Values() in
  /// unweighted mode, used on snapshot restore.
  static WeightedSketch FromValues(const MinHashSignature& values);

  /// Resemblance estimate from two weighted sketches: the fraction of the
  /// merged sketch's bottom-p entries (a weight-biased sample of the union)
  /// whose key appears in both inputs. For unweighted sketches this equals
  /// EstimateJaccard on their Values(). Returns 0 on empty input.
  static double EstimateResemblance(const WeightedSketch& a,
                                    const WeightedSketch& b, std::size_t p);

  /// Distinct-user estimate from a sketch's KEYS alone. Because one user
  /// contributes exactly one key no matter how many messages they sent
  /// (QuantumSketch requires distinct users; Combine is first-key-wins),
  /// the estimate is immune to per-user message counts — the property the
  /// store's query re-rank relies on (a spammer cannot inflate a past
  /// event's support). Exact when the sketch is not full (< p entries);
  /// the standard KMV estimate (p-1)/max_normalized_key for full
  /// unweighted sketches; for full weighted sketches the keys are a
  /// weight-biased sample and the same formula is a deterministic
  /// approximation. Returns 0 on empty input.
  static double EstimateDistinctUsers(const WeightedSketch& sketch,
                                      std::size_t p);

  std::size_t p() const { return p_; }
  bool weighted() const { return weighted_; }

 private:
  std::size_t p_;
  bool weighted_;
  SeededHash hash_;
};

/// Derives the paper's default signature size from theta and gamma:
/// p = min(ceil(theta/2), ceil(1/gamma)), clamped to [2, 16] (Section
/// 3.2.2: "Value of p is set to min(theta/2, 1/gamma)"). Both terms round
/// up — the real-valued formula is a resolution floor, so for odd theta the
/// signature errs toward one extra slot rather than one fewer.
std::size_t DefaultMinHashSize(std::uint32_t high_threshold,
                               double ec_threshold);

}  // namespace scprt::akg

#endif  // SCPRT_AKG_MINHASH_H_
