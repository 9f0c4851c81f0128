// Canonical per-quantum ingest form: the quantum's distinct (keyword, user)
// pairs, each packed into one integer `keyword << 32 | user`, in one flat
// array sorted ascending. Integer order is (keyword, user) order, so a
// keyword's users form one contiguous run and the run length is the
// keyword's distinct-user count. AggregateQuantum is the one producer
// (akg::AkgBuilder::ProcessQuantum calls it once per quantum), and the
// form depends only on the quantum's contents — which is part of what
// makes the engine's reports a pure function of the message stream.

#ifndef SCPRT_AKG_QUANTUM_AGGREGATE_H_
#define SCPRT_AKG_QUANTUM_AGGREGATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "stream/message.h"

namespace scprt::akg {

/// Packs one (keyword, user) pair so integer order is (keyword, user)
/// order.
constexpr std::uint64_t PackPair(KeywordId keyword, UserId user) {
  return std::uint64_t{keyword} << 32 | user;
}
constexpr KeywordId PairKeyword(std::uint64_t pair) {
  return static_cast<KeywordId>(pair >> 32);
}
constexpr UserId PairUser(std::uint64_t pair) {
  return static_cast<UserId>(pair);
}

/// One quantum reduced to its distinct (keyword, user) pairs.
struct QuantumAggregate {
  /// PackPair values, strictly ascending.
  std::vector<std::uint64_t> pairs;
};

/// Reduces one quantum to its canonical aggregate: packs every occurrence,
/// sorts once and drops duplicates.
QuantumAggregate AggregateQuantum(const stream::Quantum& quantum);

/// The aggregate's keyword runs as (keyword, distinct-user count), strictly
/// keyword-ascending: the node automaton's per-quantum input.
std::vector<std::pair<KeywordId, std::uint32_t>> KeywordCounts(
    const QuantumAggregate& aggregate);

}  // namespace scprt::akg

#endif  // SCPRT_AKG_QUANTUM_AGGREGATE_H_
