// Canonical per-quantum ingest form: every keyword that occurred in the
// quantum with its distinct users, keywords ascending, each user list
// sorted ascending. Aggregates built from the
// same quantum compare equal no matter how they were produced — serially
// (AggregateQuantum) or merged from keyword shards
// (engine/parallel_detector.cc) — which is what makes the engine's
// reports bit-identical at every thread count.

#ifndef SCPRT_AKG_QUANTUM_AGGREGATE_H_
#define SCPRT_AKG_QUANTUM_AGGREGATE_H_

#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "stream/message.h"

namespace scprt::akg {

/// One quantum reduced to per-keyword occurrence lists in canonical order.
struct QuantumAggregate {
  /// One keyword's quantum occurrences: `users` sorted ascending and
  /// distinct.
  struct Entry {
    KeywordId keyword = 0;
    std::vector<UserId> users;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  QuantumIndex index = 0;
  /// Sorted by keyword.
  std::vector<Entry> keywords;
};

/// Canonicalizes a raw keyword -> users gather (user lists carry one entry
/// per occurrence, in any order; duplicates collapse) into an aggregate.
/// The single definition of the canonical form — AggregateQuantum and the
/// engine's sharded reduce both end here, which is what keeps their
/// outputs comparable.
QuantumAggregate CanonicalAggregate(
    std::unordered_map<KeywordId, std::vector<UserId>>&& users_of,
    QuantumIndex index);

/// Reduces one quantum serially. The parallel engine produces the same
/// value by routing (keyword, user) pairs to keyword shards and reducing
/// each shard through CanonicalAggregate.
QuantumAggregate AggregateQuantum(const stream::Quantum& quantum);

}  // namespace scprt::akg

#endif  // SCPRT_AKG_QUANTUM_AGGREGATE_H_
