// Fixed pool of std::jthread workers fed by per-worker lock-free SPSC
// queues, behind two driver-thread calls: ParallelFor (the engine's
// ParallelForFn hook) and the Quiesce fence.
//
// The driver thread is the single producer: it pushes one task per chunk
// into the workers' queues, then blocks on an atomic counter until every
// task has run. Worker w consumes tasks w, w + threads, w + 2*threads, ...
// — a static assignment, so a given task index always lands on the same
// worker. With threads == 1 the pool spawns no workers and runs
// everything inline on the caller (exactly the serial execution).

#ifndef SCPRT_ENGINE_SHARD_POOL_H_
#define SCPRT_ENGINE_SHARD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "engine/spsc_queue.h"

namespace scprt::engine {

/// A pool of workers. Both submission methods are driver-thread-only and
/// block until the submitted work completes; task bodies must not call back
/// into the pool.
class ShardPool {
 public:
  /// `threads` >= 1; 1 means inline execution, n > 1 spawns n workers.
  explicit ShardPool(std::size_t threads);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Degree of parallelism (1 when inline).
  std::size_t threads() const {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// ParallelForFn-compatible loop over [0, n): static chunking, one chunk
  /// per worker. Deterministic slot writes make results order-independent.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& body);

  /// Quiesce barrier: returns once every worker has drained its queue and
  /// gone idle, with all of their writes visible to the driver (the
  /// snapshot fence of ParallelDetector::SaveState). ParallelFor already
  /// blocks until completion, so this is a formal fence — but
  /// checkpointing goes through it rather than relying on that detail.
  void Quiesce();

 private:
  /// Runs body(shard) for every shard in [0, shards); bodies for distinct
  /// shards may run concurrently. Blocks until all have run.
  void RunShards(std::size_t shards,
                 const std::function<void(std::size_t)>& body);

  struct Task {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t shard = 0;
  };

  struct Worker {
    SpscQueue<Task> queue{256};
    // Bumped after every push (and on stop) to wake the consumer.
    alignas(64) std::atomic<std::uint64_t> signal{0};
    std::jthread thread;  // last: joins before queue/signal destruction
  };

  void WorkerLoop(std::stop_token stop, Worker& worker);

  // Tasks outstanding in the current RunShards call.
  alignas(64) std::atomic<std::size_t> pending_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace scprt::engine

#endif  // SCPRT_ENGINE_SHARD_POOL_H_
