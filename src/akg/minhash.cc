#include "akg/minhash.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scprt::akg {

double EstimateJaccard(const MinHashSignature& a, const MinHashSignature& b,
                       std::size_t p) {
  if (a.empty() || b.empty()) return 0.0;
  // Bottom-p of the union by sorted merge under set semantics: each
  // distinct value counts once toward the sample no matter how many list
  // entries carry it. When both lists exhaust before p values are taken,
  // the sample is the whole union and the estimate is the exact Jaccard of
  // the value sets (the small-set case |A u B| < p).
  std::size_t i = 0, j = 0, taken = 0, shared = 0;
  while (taken < p && (i < a.size() || j < b.size())) {
    std::uint64_t value;
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      value = a[i];
    } else {
      value = b[j];
    }
    const bool in_a = i < a.size() && a[i] == value;
    const bool in_b = j < b.size() && b[j] == value;
    while (i < a.size() && a[i] == value) ++i;
    while (j < b.size() && b[j] == value) ++j;
    if (in_a && in_b) ++shared;
    ++taken;
  }
  return taken == 0 ? 0.0
                    : static_cast<double>(shared) /
                          static_cast<double>(taken);
}

MinHasher::MinHasher(std::size_t p, std::uint64_t seed)
    : p_(p), hash_(seed) {
  SCPRT_CHECK(p >= 1);
}

MinHashSignature MinHasher::Sketch(std::span<const UserId> users) const {
  // Bounded insertion: a max-heap of the p smallest keys seen so far,
  // seeded with the first p users' keys. Distinct users hash to distinct
  // keys, so no de-duplication is needed.
  const std::size_t fill = std::min(p_, users.size());
  MinHashSignature signature(fill);
  for (std::size_t i = 0; i < fill; ++i) signature[i] = hash_(users[i]);
  std::make_heap(signature.begin(), signature.end());
  // Past the first p, a key enters only if it beats the cached heap top,
  // which few do once the heap holds small keys.
  const std::span<const UserId> rest = users.subspan(fill);
  if (!rest.empty()) {
    std::uint64_t top = signature.front();
    for (const UserId user : rest) {
      const std::uint64_t key = hash_(user);
      if (key < top) [[unlikely]] {
        std::pop_heap(signature.begin(), signature.end());
        signature.back() = key;
        std::push_heap(signature.begin(), signature.end());
        top = signature.front();
      }
    }
  }
  std::sort(signature.begin(), signature.end());
  return signature;
}

MinHashSignature MinHasher::Combine(const MinHashSignature& a,
                                    const MinHashSignature& b,
                                    std::size_t p) {
  MinHashSignature out;
  out.reserve(std::min(p, a.size() + b.size()));
  std::size_t i = 0, j = 0;
  while (out.size() < p && (i < a.size() || j < b.size())) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      out.push_back(a[i++]);
    } else if (i == a.size() || b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      // A key present in both inputs claims one slot.
      out.push_back(a[i++]);
      ++j;
    }
  }
  return out;
}

MinHashSignature MinHasher::CombineAll(
    std::span<const MinHashSignature> parts, std::size_t p) {
  MinHashSignature out;
  for (const MinHashSignature& part : parts) out = Combine(out, part, p);
  return out;
}

double MinHasher::EstimateDistinctUsers(const MinHashSignature& signature,
                                        std::size_t p) {
  if (signature.empty()) return 0.0;
  // Below p the signature holds every distinct key: the count is exact.
  if (signature.size() < p) return static_cast<double>(signature.size());
  // KMV: with p uniform samples in [0, 1), E[max] = p/(D+1), so
  // D ≈ (p-1)/max. The keys are bijective hashes of distinct user ids, so
  // message counts never move this estimate. The maximum is searched, not
  // taken from the back: store records are decoded from disk.
  const std::uint64_t max_key =
      *std::max_element(signature.begin(), signature.end());
  const double frac = static_cast<double>(max_key) * 0x1.0p-64;
  if (frac <= 0.0) return static_cast<double>(signature.size());
  return static_cast<double>(p - 1) / frac;
}

std::size_t DefaultMinHashSize(std::uint32_t high_threshold,
                               double ec_threshold) {
  SCPRT_CHECK(ec_threshold > 0.0);
  // Both terms of min(theta/2, 1/gamma) round up: theta/2 via
  // (theta + 1) / 2 — flooring an odd theta would undershoot the paper's
  // real-valued formula and shrink the signature below its resolution.
  const std::size_t from_theta = (high_threshold + 1) / 2;
  const std::size_t from_gamma =
      static_cast<std::size_t>(std::ceil(1.0 / ec_threshold));
  const std::size_t p = std::min(from_theta, from_gamma);
  return std::clamp<std::size_t>(p, 2, 16);
}

}  // namespace scprt::akg
