// Bounded lock-free single-producer/single-consumer ring buffer.
//
// The classic two-index design: the producer owns `tail_`, the consumer
// owns `head_`, each reads the other's index with acquire ordering and
// publishes its own with release ordering. No locks, no CAS loops. Each
// side also keeps a private copy of the other's index and re-reads the
// shared one only when that copy says full (producer) or empty
// (consumer), so a push or pop usually touches no cache line the other
// thread writes. Used as the per-worker record channels of the ingest
// pipeline (the driver thread produces into a tokenizer worker's
// in-queue and consumes its out-queue).
//
// The consumer reads an element in place (Front, then Pop) and never
// moves it out, so whatever heap memory the element owns stays in its
// slot and is released by the producer's next assignment to that slot:
// memory is freed by the thread that allocated it.

#ifndef SCPRT_INGEST_SPSC_QUEUE_H_
#define SCPRT_INGEST_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace scprt::ingest {

/// Fixed-capacity SPSC queue. Exactly one thread may call the producer
/// members (TryPush, full) and exactly one thread the consumer members
/// (Front, Pop); they may be different threads.
template <typename T>
class SpscQueue {
 public:
  /// `capacity` must be a power of two >= 2.
  explicit SpscQueue(std::size_t capacity)
      : mask_(capacity - 1), slots_(capacity) {
    SCPRT_CHECK(capacity >= 2 && (capacity & mask_) == 0);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. True when no push can succeed right now.
  bool full() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_seen_ <= mask_) return false;
    head_seen_ = head_.load(std::memory_order_acquire);
    return tail - head_seen_ > mask_;
  }

  /// Producer side. False when the queue is full.
  bool TryPush(T value) {
    if (full()) return false;
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. The oldest element, or null when the queue is empty.
  /// It stays valid, and in the queue, until Pop().
  T* Front() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_seen_) {
      tail_seen_ = tail_.load(std::memory_order_acquire);
      if (head == tail_seen_) return nullptr;
    }
    return &slots_[head & mask_];
  }

  /// Consumer side. Releases the element Front() returned to the producer.
  void Pop() {
    head_.store(head_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Approximate size (exact when called from either owning thread).
  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  const std::size_t mask_;
  std::vector<T> slots_;
  // Each index on its own cache line, next to the copy of the other index
  // that the same thread keeps, to avoid false sharing between the two.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t tail_seen_ = 0;  // consumer's copy of tail_
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t head_seen_ = 0;  // producer's copy of head_
};

}  // namespace scprt::ingest

#endif  // SCPRT_INGEST_SPSC_QUEUE_H_
