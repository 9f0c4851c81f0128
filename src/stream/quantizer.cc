#include "stream/quantizer.h"

#include <limits>
#include <utility>

#include "common/check.h"

namespace scprt::stream {

Quantizer::Quantizer(std::size_t quantum_size) : quantum_size_(quantum_size) {
  SCPRT_CHECK(quantum_size >= 1);
  pending_.reserve(quantum_size);
}

std::optional<Quantum> Quantizer::Push(Message message) {
  pending_.push_back(std::move(message));
  if (pending_.size() < quantum_size_) return std::nullopt;
  Quantum q;
  q.index = TakeIndex();
  q.messages = std::move(pending_);
  pending_.clear();
  pending_.reserve(quantum_size_);
  return q;
}

QuantumIndex Quantizer::TakeIndex() {
  // The top index leaves the clock no successor: no quantum may carry it.
  SCPRT_CHECK(next_index_ < std::numeric_limits<QuantumIndex>::max());
  return next_index_++;
}

std::vector<Message> Quantizer::TakePending() {
  std::vector<Message> taken = std::move(pending_);
  pending_.clear();
  pending_.reserve(quantum_size_);
  return taken;
}

bool Quantizer::Restore(QuantumIndex next_index,
                        std::vector<Message> pending) {
  if (pending.size() >= quantum_size_) return false;
  next_index_ = next_index;
  pending_ = std::move(pending);
  pending_.reserve(quantum_size_);
  return true;
}

std::optional<Quantum> Quantizer::Flush() {
  if (pending_.empty()) return std::nullopt;
  Quantum q;
  q.index = TakeIndex();
  q.messages = std::move(pending_);
  pending_.clear();
  return q;
}

std::vector<Quantum> SplitIntoQuanta(const std::vector<Message>& trace,
                                     std::size_t quantum_size,
                                     bool keep_partial) {
  Quantizer quantizer(quantum_size);
  std::vector<Quantum> quanta;
  quanta.reserve(trace.size() / quantum_size + 1);
  for (const Message& m : trace) {
    if (auto q = quantizer.Push(m)) quanta.push_back(*std::move(q));
  }
  if (keep_partial) {
    if (auto q = quantizer.Flush()) quanta.push_back(*std::move(q));
  }
  return quanta;
}

}  // namespace scprt::stream
