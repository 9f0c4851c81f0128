// Groups an ordered message stream into fixed-size quanta.

#ifndef SCPRT_STREAM_QUANTIZER_H_
#define SCPRT_STREAM_QUANTIZER_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "stream/message.h"

namespace scprt::stream {

/// Accumulates messages and emits a Quantum every `quantum_size` messages
/// (the paper's δ). Push-based so it composes with live sources.
class Quantizer {
 public:
  /// `quantum_size` must be >= 1.
  explicit Quantizer(std::size_t quantum_size);

  /// Adds one message. Returns a completed quantum when this message filled
  /// it, otherwise nullopt. Aborts rather than close a quantum at the top
  /// index (INT64_MAX), which would leave the clock no successor.
  std::optional<Quantum> Push(Message message);

  /// Flushes a trailing partial quantum (end of trace). Returns nullopt when
  /// nothing is pending. Aborts at the top index, as Push does.
  std::optional<Quantum> Flush();

  /// Index the next emitted quantum will carry.
  QuantumIndex next_index() const { return next_index_; }

  /// Messages accumulated toward the next quantum (checkpointing).
  const std::vector<Message>& pending() const { return pending_; }

  /// Moves the pending partial quantum out, leaving it empty (engine
  /// restore hands accumulation from the core to the outer quantizer).
  std::vector<Message> TakePending();

  /// Re-bases the next quantum index (checkpoint restore: replayed quanta
  /// bypass the quantizer, which must continue after them).
  void SetNextIndex(QuantumIndex index) { next_index_ = index; }

  /// Checkpoint restore: installs the clock and the partial quantum in one
  /// step. `pending` must hold fewer than quantum_size() messages (a full
  /// quantum would already have been emitted); returns false otherwise and
  /// leaves the quantizer unchanged.
  bool Restore(QuantumIndex next_index, std::vector<Message> pending);

  /// Configured δ.
  std::size_t quantum_size() const { return quantum_size_; }

 private:
  /// The closing quantum's index; advances the clock.
  QuantumIndex TakeIndex();

  std::size_t quantum_size_;
  QuantumIndex next_index_ = 0;
  std::vector<Message> pending_;
};

/// Convenience: splits a whole trace into quanta of `quantum_size`,
/// including a trailing partial quantum when `keep_partial` is set.
std::vector<Quantum> SplitIntoQuanta(const std::vector<Message>& trace,
                                     std::size_t quantum_size,
                                     bool keep_partial = false);

}  // namespace scprt::stream

#endif  // SCPRT_STREAM_QUANTIZER_H_
