#include "akg/quantum_aggregate.h"

#include <algorithm>
#include <array>

namespace scprt::akg {

void RadixSort(std::vector<std::uint64_t>& data, unsigned first_byte,
               std::vector<std::uint64_t>& scratch) {
  std::uint64_t any = 0, all = ~std::uint64_t{0};
  for (std::uint64_t value : data) {
    any |= value;
    all &= value;
  }
  scratch.resize(data.size());
  for (unsigned shift = 8 * first_byte; shift < 64; shift += 8) {
    if ((((any ^ all) >> shift) & 0xff) == 0) continue;
    std::array<std::size_t, 257> offsets{};
    for (std::uint64_t value : data) ++offsets[((value >> shift) & 0xff) + 1];
    for (std::size_t b = 1; b < offsets.size(); ++b) {
      offsets[b] += offsets[b - 1];
    }
    for (std::uint64_t value : data) {
      scratch[offsets[(value >> shift) & 0xff]++] = value;
    }
    data.swap(scratch);
  }
}

QuantumAggregate AggregateQuantum(const stream::Quantum& quantum) {
  QuantumAggregate aggregate;
  std::size_t occurrences = 0;
  for (const stream::Message& m : quantum.messages) {
    occurrences += m.keywords.size();
  }
  std::vector<std::uint64_t>& pairs = aggregate.pairs;
  pairs.reserve(occurrences);
  for (const stream::Message& m : quantum.messages) {
    for (KeywordId k : m.keywords) pairs.push_back(PackPair(k, m.user));
  }
  std::vector<std::uint64_t> scratch;
  RadixSort(pairs, 0, scratch);
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
