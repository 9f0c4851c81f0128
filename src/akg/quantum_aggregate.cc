#include "akg/quantum_aggregate.h"

#include <algorithm>

namespace scprt::akg {

QuantumAggregate AggregateQuantum(const stream::Quantum& quantum) {
  QuantumAggregate aggregate;
  aggregate.index = quantum.index;
  std::size_t occurrences = 0;
  for (const stream::Message& m : quantum.messages) {
    occurrences += m.keywords.size();
  }
  std::vector<std::uint64_t>& pairs = aggregate.pairs;
  pairs.reserve(occurrences);
  for (const stream::Message& m : quantum.messages) {
    for (KeywordId k : m.keywords) pairs.push_back(PackPair(k, m.user));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return aggregate;
}

std::vector<std::pair<KeywordId, std::uint32_t>> KeywordCounts(
    const QuantumAggregate& aggregate) {
  std::vector<std::pair<KeywordId, std::uint32_t>> counts;
  for (std::uint64_t pair : aggregate.pairs) {
    const KeywordId keyword = PairKeyword(pair);
    if (counts.empty() || counts.back().first != keyword) {
      counts.emplace_back(keyword, 0);
    }
    ++counts.back().second;
  }
  return counts;
}

}  // namespace scprt::akg
