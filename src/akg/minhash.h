// Bottom-p Min-Hash signatures for cheap edge-correlation screening
// (Section 3.2.2).
//
// The paper's scheme hashes each user id once with a seeded 64-bit hash;
// a keyword's signature is the p smallest distinct hash values over its
// window id set. Two keywords sharing a signature value are candidate
// edges (the AKG builder's bucket join); the bottom-p intersection also
// yields the standard bottom-k Jaccard estimate (EstimateJaccard).
//
// MinHasher::Sketch builds a signature from a distinct user set — the AKG
// builder passes a keyword's window id set straight from UserIdSets when
// it has no current bottom-p for the keyword. Otherwise the builder keeps
// the bottom-p current from the window's row transitions, ranking each
// entering or leaving user by its Key: a leaving key at or below the
// largest held invalidates it, and an entering key joins when fewer than
// p are held or when it beats the largest.
//
// Combine is exact under truncation (the bottom-p of a union is the
// bottom-p of the parts' bottom-p's, by the usual KMV argument), hence
// associative and commutative — which is what lets the member keywords of
// a cluster reduce to one distinct-user signature by a plain left fold
// (CombineAll) with the same result as any other grouping.

#ifndef SCPRT_AKG_MINHASH_H_
#define SCPRT_AKG_MINHASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace scprt::akg {

/// A keyword's signature: up to p distinct hash values, sorted ascending.
using MinHashSignature = std::vector<std::uint64_t>;

/// Bottom-k Jaccard estimate: |X n A n B| / |X| where X is the bottom-p of
/// A u B under set semantics (duplicate values within a list count once).
/// Unbiased for |A u B| >= p; when both signatures are complete sets
/// (|A| < p and |B| < p), X is the whole union and the estimate is the
/// exact Jaccard. Returns 0 on empty input.
double EstimateJaccard(const MinHashSignature& a, const MinHashSignature& b,
                       std::size_t p);

/// Builds and merges bottom-p signatures. Stateless apart from the
/// configuration (p, seed); safe to share across threads.
class MinHasher {
 public:
  /// `p` >= 1 signature size; `seed` fixes the key hash (SeededHash(seed)
  /// of the user id — bijective, so distinct users never collide).
  MinHasher(std::size_t p, std::uint64_t seed);

  /// Signature of a user set: the p smallest SeededHash(seed) values,
  /// ascending. `users` must be distinct (a window id set); their order
  /// does not matter. One pass: a max-heap of the first p keys, then each
  /// later key is compared with the cached heap top and enters the heap
  /// only when it is smaller.
  MinHashSignature Sketch(std::span<const UserId> users) const;

  /// One user's key: the value Sketch ranks the user by.
  std::uint64_t Key(UserId user) const { return hash_(user); }

  /// Merges two signatures: the sorted de-duplicated union, truncated to
  /// p. Exact (equals the signature of the merged id sets), associative
  /// and commutative; the identity is the empty signature.
  static MinHashSignature Combine(const MinHashSignature& a,
                                  const MinHashSignature& b, std::size_t p);

  /// Reduces `parts` with Combine, left to right; empty when `parts` is.
  /// Combine is exact, so the result is the signature of the union of
  /// the parts' id sets, whatever their order.
  static MinHashSignature CombineAll(std::span<const MinHashSignature> parts,
                                     std::size_t p);

  /// Distinct-user estimate from a signature. One user contributes exactly
  /// one key no matter how many messages they sent, so the estimate is
  /// immune to per-user message counts — the property the store's query
  /// re-rank relies on (a spammer cannot inflate a past event's support).
  /// Exact when the signature is not full (< p values); otherwise the
  /// standard KMV estimate (p-1)/max_normalized_key. Returns 0 on empty
  /// input.
  static double EstimateDistinctUsers(const MinHashSignature& signature,
                                      std::size_t p);

  std::size_t p() const { return p_; }

 private:
  std::size_t p_;
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
