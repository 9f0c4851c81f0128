// Edge-correlation computation policy: exact Jaccard over id sets, Min-Hash
// screened, or pure Min-Hash estimate (Section 3.2).

#ifndef SCPRT_AKG_CORRELATION_H_
#define SCPRT_AKG_CORRELATION_H_

#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "common/types.h"

namespace scprt::akg {

/// How edge correlations are obtained.
enum class EcMode {
  /// Exact Jaccard on every candidate pair (no Min-Hash) — the reference.
  kExact,
  /// Min-Hash candidate screen (shared signature value), exact Jaccard to
  /// confirm — the recommended production mode.
  kMinHashScreenExactVerify,
  /// Min-Hash only: the bottom-p estimate is the EC (fastest; small false
  /// positive/negative rates, Section 3.2.2).
  kMinHashOnly,
};

/// Computes the EC of pair (a, b) under `mode`, for comparison with the
/// edge threshold `gamma`. `sig_a`/`sig_b` may be empty in kExact mode;
/// kMinHashOnly returns their bottom-p Jaccard estimate. The exact modes
/// return the exact Jaccard when it is >= gamma and some value below gamma
/// otherwise (UserIdSets::JaccardAtLeast). Returns a value in [0, 1].
double ComputeEc(EcMode mode, const UserIdSets& sets, KeywordId a,
                 KeywordId b, const MinHashSignature& sig_a,
                 const MinHashSignature& sig_b, std::size_t p, double gamma);

}  // namespace scprt::akg

#endif  // SCPRT_AKG_CORRELATION_H_
