#include "engine/parallel_detector.h"

#include <algorithm>
#include <iterator>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scprt::engine {
namespace {

std::size_t ResolveThreads(std::size_t threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

ParallelDetector::ParallelDetector(const ParallelDetectorConfig& config,
                                   const text::KeywordDictionary* dictionary)
    : pool_(ResolveThreads(config.threads)),
      detector_(config.detector, dictionary),
      quantizer_(config.detector.quantum_size) {
  if (pool_.threads() > 1) {
    detector_.set_parallel_for(
        [this](std::size_t n, const std::function<void(std::size_t)>& body) {
          pool_.ParallelFor(n, body);
        });
  }
}

std::optional<detect::QuantumReport> ParallelDetector::Push(
    const stream::Message& message) {
  auto quantum = quantizer_.Push(message);
  if (!quantum) return std::nullopt;
  return ProcessQuantum(*quantum);
}

detect::QuantumReport ParallelDetector::ProcessQuantum(
    const stream::Quantum& quantum) {
  if (quantizer_.next_index() <= quantum.index) {
    quantizer_.SetNextIndex(quantum.index + 1);
  }
  const akg::QuantumAggregate aggregate = ShardAggregate(quantum);
  // Core detection (AKG update, clustering, ranking) as its own span so a
  // trace separates aggregation cost from detection cost per quantum.
  obs::ScopedSpan span("detect.core");
  return detector_.ProcessQuantumWithAggregate(quantum, aggregate);
}

std::vector<detect::QuantumReport> ParallelDetector::Run(
    const std::vector<stream::Message>& trace) {
  std::vector<detect::QuantumReport> reports;
  for (const stream::Message& m : trace) {
    if (auto report = Push(m)) reports.push_back(*std::move(report));
  }
  return reports;
}

void ParallelDetector::SaveState(BinaryWriter& out,
                                 const stream::Quantizer& clock) {
  pool_.Quiesce();  // all shard work fenced; core state is ours to read
  detector_.SaveState(out, clock);
}

bool ParallelDetector::RestoreState(BinaryReader& in) {
  return detector_.RestoreState(in, quantizer_);
}

akg::QuantumAggregate ParallelDetector::ShardAggregate(
    const stream::Quantum& quantum) {
  // Stage instrumentation: clock reads and relaxed stat writes only — no
  // ordering, no branching on data — so the aggregate stays bit-identical
  // with observability on or off (parallel_detector_test holds this).
  obs::Registry& reg = obs::Registry::Default();
  static obs::Histogram* const aggregate_hist =
      reg.GetHistogram("engine.aggregate_ns");
  static obs::Histogram* const route_hist =
      reg.GetHistogram("engine.route_ns");
  static obs::Histogram* const reduce_hist =
      reg.GetHistogram("engine.reduce_ns");
  static obs::Histogram* const merge_hist =
      reg.GetHistogram("engine.merge_ns");
  static obs::Histogram* const shard_detect_hist =
      reg.GetHistogram("engine.shard_detect_ns");
  static obs::Histogram* const shard_pairs_hist =
      reg.GetHistogram("engine.shard_pairs", "pairs");
  static obs::Gauge* const imbalance_gauge =
      reg.GetGauge("engine.shard_imbalance");
  obs::ScopedSpan aggregate_span("aggregate");
  obs::ScopedHistogramTimer aggregate_timer(aggregate_hist);

  const std::size_t shards = pool_.threads();
  if (shards <= 1) return akg::AggregateQuantum(quantum);

  // Phase A — slice-parallel routing: worker w scans only its slice of
  // the quantum and buckets (keyword, user) pairs by owning shard, so the
  // total scan work stays O(messages) regardless of the shard count.
  using Routed = std::vector<std::vector<std::pair<KeywordId, UserId>>>;
  std::vector<Routed> routed(shards, Routed(shards));
  const std::size_t messages = quantum.messages.size();
  {
    obs::ScopedSpan span("aggregate.route");
    obs::ScopedHistogramTimer timer(route_hist);
    pool_.RunShards(shards, [&](std::size_t w) {
      Routed& buckets = routed[w];
      const std::size_t begin = w * messages / shards;
      const std::size_t end = (w + 1) * messages / shards;
      for (std::size_t i = begin; i < end; ++i) {
        const stream::Message& m = quantum.messages[i];
        for (KeywordId k : m.keywords) {
          buckets[k % shards].emplace_back(k, m.user);
        }
      }
    });
  }

  // Phase B — shard-parallel reduce: shard s gathers every worker's bucket
  // for s and canonicalizes through the same helper AggregateQuantum uses,
  // so the merged result equals the serial aggregate exactly. Per-shard
  // wall time and pair counts feed the imbalance gauge — the signal the
  // distributed-sharding tier will rebalance on.
  std::vector<akg::QuantumAggregate> parts(shards);
  {
    obs::ScopedSpan span("aggregate.reduce");
    obs::ScopedHistogramTimer timer(reduce_hist);
    const bool observed = obs::Enabled();
    std::vector<std::int64_t> shard_ns(observed ? shards : 0, 0);
    pool_.RunShards(shards, [&](std::size_t s) {
      obs::ScopedSpan shard_span("shard.detect");
      const std::int64_t t0 = observed ? obs::MonotonicNanos() : 0;
      std::size_t pairs = 0;
      std::unordered_map<KeywordId, std::vector<UserId>> users_of;
      for (std::size_t w = 0; w < shards; ++w) {
        pairs += routed[w][s].size();
        for (const auto& [keyword, user] : routed[w][s]) {
          users_of[keyword].push_back(user);
        }
      }
      parts[s] = akg::CanonicalAggregate(std::move(users_of), quantum.index);
      if (observed) {
        shard_ns[s] = obs::MonotonicNanos() - t0;
        shard_detect_hist->Record(static_cast<std::uint64_t>(shard_ns[s]));
        shard_pairs_hist->Record(pairs);
      }
    });
    if (observed) {
      std::int64_t max_ns = 0;
      std::int64_t total_ns = 0;
      for (const std::int64_t ns : shard_ns) {
        max_ns = std::max(max_ns, ns);
        total_ns += ns;
      }
      const double mean =
          static_cast<double>(total_ns) / static_cast<double>(shards);
      imbalance_gauge->Set(mean > 0 ? static_cast<double>(max_ns) / mean
                                    : 1.0);
    }
  }

  // Phase C — tree-reduce merge: pairwise sorted merges of the shard
  // outputs, each level running on the pool. Shards own disjoint keyword
  // classes (k % shards), so every merge is a pure interleave of two sorted
  // runs with no key collisions — associative and commutative, hence the
  // same canonical order AggregateQuantum produces at any thread count and
  // for any tree shape.
  using Entries = std::vector<akg::QuantumAggregate::Entry>;
  std::vector<Entries> runs(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    runs[s] = std::move(parts[s].keywords);
  }
  const auto merge_runs = [](Entries a, Entries b) {
    Entries out;
    out.reserve(a.size() + b.size());
    std::merge(std::make_move_iterator(a.begin()),
               std::make_move_iterator(a.end()),
               std::make_move_iterator(b.begin()),
               std::make_move_iterator(b.end()), std::back_inserter(out),
               [](const akg::QuantumAggregate::Entry& x,
                  const akg::QuantumAggregate::Entry& y) {
                 return x.keyword < y.keyword;
               });
    return out;
  };
  akg::QuantumAggregate aggregate;
  aggregate.index = quantum.index;
  {
    obs::ScopedSpan span("aggregate.merge");
    obs::ScopedHistogramTimer timer(merge_hist);
    aggregate.keywords = TreeReduce(
        std::move(runs), merge_runs,
        [this](std::size_t n, const std::function<void(std::size_t)>& body) {
          pool_.ParallelFor(n, body);
        });
  }
  return aggregate;
}

}  // namespace scprt::engine
