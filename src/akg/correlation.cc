#include "akg/correlation.h"

namespace scprt::akg {

double ComputeEc(EcMode mode, const UserIdSets& sets, KeywordId a,
                 KeywordId b, const MinHashSignature& sig_a,
                 const MinHashSignature& sig_b, std::size_t p,
                 double gamma) {
  switch (mode) {
    case EcMode::kExact:
    case EcMode::kMinHashScreenExactVerify:
      return sets.JaccardAtLeast(a, b, gamma);
    case EcMode::kMinHashOnly:
      return EstimateJaccard(sig_a, sig_b, p);
  }
  return 0.0;
}

}  // namespace scprt::akg
