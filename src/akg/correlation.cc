#include "akg/correlation.h"

namespace scprt::akg {

double ComputeEc(EcMode mode, bool weighted, const UserIdSets& sets,
                 KeywordId a, KeywordId b, const KeywordSignature& sig_a,
                 const KeywordSignature& sig_b, std::size_t p) {
  switch (mode) {
    case EcMode::kExact:
    case EcMode::kMinHashScreenExactVerify:
      return sets.Jaccard(a, b);
    case EcMode::kMinHashOnly:
      return weighted ? WeightedMinHasher::EstimateResemblance(
                            sig_a.sketch, sig_b.sketch, p)
                      : EstimateJaccard(sig_a.values, sig_b.values, p);
  }
  return 0.0;
}

bool PassesScreen(EcMode mode, const MinHashSignature& sig_a,
                  const MinHashSignature& sig_b) {
  if (mode == EcMode::kExact) return true;
  return SharesValue(sig_a, sig_b);
}

}  // namespace scprt::akg
