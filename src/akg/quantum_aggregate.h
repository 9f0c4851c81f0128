// Canonical per-quantum ingest form: every keyword that occurred in the
// quantum with its distinct users, keywords ascending, each user list
// sorted ascending. AggregateQuantum is the one producer; the engine
// (engine/parallel_detector.cc) calls it at every thread count, and the
// form depends only on the quantum's contents — which is part of what
// makes the engine's reports bit-identical at every thread count.

#ifndef SCPRT_AKG_QUANTUM_AGGREGATE_H_
#define SCPRT_AKG_QUANTUM_AGGREGATE_H_

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

/// Reduces one quantum to its canonical aggregate.
QuantumAggregate AggregateQuantum(const stream::Quantum& quantum);

}  // namespace scprt::akg

#endif  // SCPRT_AKG_QUANTUM_AGGREGATE_H_
