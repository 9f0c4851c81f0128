// Hook type for data-parallel loops over independent items, plus the
// serial pairwise-tree reduction the Min-Hash layer combines signatures with.
//
// Subsystems with pure per-item hot loops (Min-Hash signature refresh, edge
// correlation batches, per-cluster snapshot cores) run them through a
// ParallelForFn. The default executes serially; the engine layer
// (engine/shard_pool.h) substitutes a thread-pool implementation. Because
// every loop body writes only its own index's slot, results are identical
// under any scheduler — this is what keeps the parallel detector's output
// bit-identical to the serial one.

#ifndef SCPRT_COMMON_PARALLEL_H_
#define SCPRT_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace scprt {

/// Runs `body(i)` for every i in [0, n). Implementations may execute bodies
/// concurrently and in any order; bodies must be independent.
using ParallelForFn =
    std::function<void(std::size_t n,
                       const std::function<void(std::size_t)>& body)>;

/// The default hook: a plain serial loop.
inline void SerialFor(std::size_t n,
                      const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// Reduces `items` to a single value by level-by-level pairwise merges:
/// adjacent pairs merge first, then pairs of those results, and so on. The
/// reduction shape is a pure function of the item count, so the result is
/// deterministic — and identical to every other association whenever
/// `merge` is associative. An odd trailing item is carried to the next
/// level unmerged. Returns T{} when `items` is empty.
template <typename T, typename Merge>
T TreeReduce(std::vector<T> items, const Merge& merge) {
  if (items.empty()) return T{};
  while (items.size() > 1) {
    const std::size_t pairs = items.size() / 2;
    std::vector<T> next(pairs + items.size() % 2);
    for (std::size_t i = 0; i < pairs; ++i) {
      next[i] = merge(std::move(items[2 * i]), std::move(items[2 * i + 1]));
    }
    if (items.size() % 2 == 1) next.back() = std::move(items.back());
    items = std::move(next);
  }
  return std::move(items.front());
}

}  // namespace scprt

#endif  // SCPRT_COMMON_PARALLEL_H_
