#include "akg/minhash.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace scprt::akg {

namespace {

// Salt decorrelating the per-(user, quantum) weighted draws from the key
// stream itself (the key is already one SplitMix64 of the user id).
constexpr std::uint64_t kQuantumSalt = 0xc0ac29b7c97c50ddULL;

// Monotone map of a 64-bit key into [0, 1). The double rounding may merge
// neighbouring keys into one score, but the key tie-break restores the
// exact key order — so an unweighted sketch's (score, key) order IS the
// key order, and its bottom-p equals the unweighted bottom-p hash values.
double UnitScore(std::uint64_t key) {
  return static_cast<double>(key) * 0x1.0p-64;
}

// Bounded insertion: keep the bottom-p of the stream under SketchOrderLess using
// a max-heap of the current survivors.
void PushBottomP(WeightedSketch& sketch, const SketchEntry& entry,
                 std::size_t p) {
  if (sketch.size() < p) {
    sketch.push_back(entry);
    std::push_heap(sketch.begin(), sketch.end(), SketchOrderLess);
  } else if (SketchOrderLess(entry, sketch.front())) {
    std::pop_heap(sketch.begin(), sketch.end(), SketchOrderLess);
    sketch.back() = entry;
    std::push_heap(sketch.begin(), sketch.end(), SketchOrderLess);
  }
}

}  // namespace

bool SketchOrderLess(const SketchEntry& a, const SketchEntry& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.key < b.key;
}

bool SharesValue(const MinHashSignature& a, const MinHashSignature& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

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

WeightedMinHasher::WeightedMinHasher(std::size_t p, std::uint64_t seed,
                                     bool weighted)
    : p_(p), weighted_(weighted), hash_(seed) {
  SCPRT_CHECK(p >= 1);
}

WeightedSketch WeightedMinHasher::QuantumSketch(
    QuantumIndex quantum, const std::vector<UserId>& users,
    const std::vector<std::uint32_t>& counts) const {
  SCPRT_DCHECK(!weighted_ || counts.size() == users.size());
  WeightedSketch sketch;
  sketch.reserve(std::min(p_, users.size()));
  for (std::size_t i = 0; i < users.size(); ++i) {
    SketchEntry entry;
    entry.key = hash_(users[i]);
    if (weighted_) {
      // One independent Exp(1) draw per (user, quantum), scaled by the
      // user's message count this quantum. Min-merging the draws across
      // quanta yields Exp(sum of counts) — additive weighting emerges
      // from the same Combine that merges everything else.
      const std::uint64_t d = SplitMix64(
          entry.key ^
          SplitMix64(static_cast<std::uint64_t>(quantum) ^ kQuantumSalt));
      const double u01 = (static_cast<double>(d >> 11) + 1.0) * 0x1.0p-53;
      entry.score = -std::log(u01) / static_cast<double>(counts[i]);
    } else {
      entry.score = UnitScore(entry.key);
    }
    PushBottomP(sketch, entry, p_);
  }
  std::sort(sketch.begin(), sketch.end(), SketchOrderLess);
  return sketch;
}

WeightedSketch WeightedMinHasher::Combine(const WeightedSketch& a,
                                          const WeightedSketch& b,
                                          std::size_t p) {
  WeightedSketch out;
  out.reserve(std::min(p, a.size() + b.size()));
  std::size_t i = 0, j = 0;
  while (out.size() < p && (i < a.size() || j < b.size())) {
    const SketchEntry* next;
    if (j == b.size() || (i < a.size() && SketchOrderLess(a[i], b[j]))) {
      next = &a[i++];
    } else {
      next = &b[j++];
    }
    // A key present in both inputs surfaces first with its minimum score;
    // the later (larger) occurrence must not claim a second slot.
    bool seen = false;
    for (const SketchEntry& e : out) {
      if (e.key == next->key) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(*next);
  }
  return out;
}

WeightedSketch WeightedMinHasher::CombineTree(std::vector<WeightedSketch> parts,
                                              std::size_t p) {
  return TreeReduce(
      std::move(parts),
      [p](WeightedSketch a, WeightedSketch b) { return Combine(a, b, p); },
      nullptr);
}

MinHashSignature WeightedMinHasher::Values(const WeightedSketch& sketch) {
  MinHashSignature values;
  values.reserve(sketch.size());
  for (const SketchEntry& entry : sketch) values.push_back(entry.key);
  std::sort(values.begin(), values.end());
  return values;
}

WeightedSketch WeightedMinHasher::FromValues(const MinHashSignature& values) {
  WeightedSketch sketch;
  sketch.reserve(values.size());
  // Ascending keys give ascending (score, key) under the monotone unit
  // score, so the result is already in sketch order.
  for (std::uint64_t key : values) sketch.push_back({key, UnitScore(key)});
  return sketch;
}

double WeightedMinHasher::EstimateResemblance(const WeightedSketch& a,
                                              const WeightedSketch& b,
                                              std::size_t p) {
  if (a.empty() || b.empty()) return 0.0;
  const WeightedSketch merged = Combine(a, b, p);
  const auto has_key = [](const WeightedSketch& sketch, std::uint64_t key) {
    for (const SketchEntry& entry : sketch) {
      if (entry.key == key) return true;
    }
    return false;
  };
  std::size_t shared = 0;
  for (const SketchEntry& entry : merged) {
    if (has_key(a, entry.key) && has_key(b, entry.key)) ++shared;
  }
  return merged.empty() ? 0.0
                        : static_cast<double>(shared) /
                              static_cast<double>(merged.size());
}

double WeightedMinHasher::EstimateDistinctUsers(const WeightedSketch& sketch,
                                                std::size_t p) {
  if (sketch.empty()) return 0.0;
  // Below p the sketch holds every distinct key: the count is exact.
  if (sketch.size() < p) return static_cast<double>(sketch.size());
  std::uint64_t max_key = 0;
  for (const SketchEntry& entry : sketch) {
    max_key = std::max(max_key, entry.key);
  }
  // KMV: with p uniform samples in [0, 1), E[max] = p/(D+1), so
  // D ≈ (p-1)/max. The keys are bijective hashes of distinct user ids, so
  // message counts never move this estimate.
  const double frac = static_cast<double>(max_key) * 0x1.0p-64;
  if (frac <= 0.0) return static_cast<double>(sketch.size());
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
