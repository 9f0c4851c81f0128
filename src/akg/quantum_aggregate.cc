#include "akg/quantum_aggregate.h"

#include <algorithm>
#include <unordered_map>

namespace scprt::akg {

QuantumAggregate AggregateQuantum(const stream::Quantum& quantum) {
  std::unordered_map<KeywordId, std::vector<UserId>> users_of;
  for (const stream::Message& m : quantum.messages) {
    for (KeywordId k : m.keywords) users_of[k].push_back(m.user);
  }
  QuantumAggregate aggregate;
  aggregate.index = quantum.index;
  aggregate.keywords.reserve(users_of.size());
  for (auto& [keyword, users] : users_of) {
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
    aggregate.keywords.push_back({keyword, std::move(users)});
  }
  std::sort(
      aggregate.keywords.begin(), aggregate.keywords.end(),
      [](const auto& a, const auto& b) { return a.keyword < b.keyword; });
  return aggregate;
}

}  // namespace scprt::akg
