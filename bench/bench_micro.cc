// Micro-benchmarks (google-benchmark) of the hot primitives: graph
// mutation, short-cycle queries, incremental cluster maintenance vs offline
// recomputation, Min-Hash signatures, quantum aggregation, id-set ingest,
// the node automaton, exact Jaccard and cluster support.

#include <algorithm>
#include <functional>
#include <set>

#include <benchmark/benchmark.h>

#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "akg/node_state.h"
#include "akg/quantum_aggregate.h"
#include "cluster/maintenance.h"
#include "cluster/offline.h"
#include "common/random.h"
#include "graph/graph.h"
#include "graph/short_cycle.h"
#include "stream/message.h"

namespace {

using namespace scprt;
using graph::DynamicGraph;
using graph::NodeId;

// A random graph with average degree ~6 (the paper's AKG regime).
DynamicGraph RandomGraph(std::size_t nodes, std::size_t edges,
                         std::uint64_t seed) {
  Rng rng(seed);
  DynamicGraph g;
  while (g.edge_count() < edges) {
    const NodeId a = static_cast<NodeId>(rng.UniformInt(nodes));
    const NodeId b = static_cast<NodeId>(rng.UniformInt(nodes));
    if (a != b) g.AddEdge(a, b);
  }
  return g;
}

void BM_GraphAddRemoveEdge(benchmark::State& state) {
  DynamicGraph g = RandomGraph(1000, 3000, 1);
  Rng rng(2);
  for (auto _ : state) {
    const NodeId a = static_cast<NodeId>(rng.UniformInt(1000));
    const NodeId b = static_cast<NodeId>(rng.UniformInt(1000));
    if (a == b) continue;
    if (g.AddEdge(a, b)) g.RemoveEdge(a, b);
  }
}
BENCHMARK(BM_GraphAddRemoveEdge);

void BM_ShortCycleQuery(benchmark::State& state) {
  const DynamicGraph g =
      RandomGraph(static_cast<std::size_t>(state.range(0)),
                  static_cast<std::size_t>(state.range(0)) * 3, 3);
  const auto edges = g.Edges();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& e = edges[i++ % edges.size()];
    benchmark::DoNotOptimize(graph::EdgeOnShortCycle(g, e.u, e.v));
  }
}
BENCHMARK(BM_ShortCycleQuery)->Arg(200)->Arg(1000)->Arg(5000);

void BM_IncrementalMaintenance(benchmark::State& state) {
  // Steady-state churn on an AKG-like sparse graph: toggle edges drawn from
  // a fixed candidate pool of 3n pairs, so density stays near the paper's
  // regime (avg degree ~ 3-6) and per-iteration cost is stationary.
  Rng rng(4);
  cluster::ScpMaintainer m;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::pair<NodeId, NodeId>> pool;
  while (pool.size() < 3 * n) {
    const NodeId a = static_cast<NodeId>(rng.UniformInt(n));
    const NodeId b = static_cast<NodeId>(rng.UniformInt(n));
    if (a != b) pool.emplace_back(a, b);
  }
  for (auto _ : state) {
    const auto& [a, b] = pool[rng.UniformInt(pool.size())];
    if (!m.AddEdge(a, b)) m.RemoveEdge(a, b);
  }
}
BENCHMARK(BM_IncrementalMaintenance)->Arg(100)->Arg(500)->Arg(2000);

void BM_OfflineReclustering(benchmark::State& state) {
  const DynamicGraph g =
      RandomGraph(static_cast<std::size_t>(state.range(0)),
                  static_cast<std::size_t>(state.range(0)) * 3, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::OfflineScpClusters(g));
  }
}
BENCHMARK(BM_OfflineReclustering)->Arg(100)->Arg(500)->Arg(2000);

void BM_MinHashSignature(benchmark::State& state) {
  Rng rng(6);
  std::vector<UserId> users;
  for (int i = 0; i < state.range(0); ++i) {
    users.push_back(static_cast<UserId>(rng.Next()));
  }
  // Sketch takes a distinct-user set.
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  const akg::MinHasher hasher(8, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Sketch(users));
  }
}
BENCHMARK(BM_MinHashSignature)->Arg(16)->Arg(128)->Arg(1024);

// One quantum aggregate: `keywords` keywords 0, 1, ..., each with `users`
// distinct users drawn from [0, 4 * users), so the lists overlap.
akg::QuantumAggregate RandomAggregate(std::size_t keywords, std::size_t users,
                                      std::uint64_t seed) {
  Rng rng(seed);
  akg::QuantumAggregate aggregate;
  for (std::size_t k = 0; k < keywords; ++k) {
    std::set<UserId> ids;
    while (ids.size() < users) {
      ids.insert(static_cast<UserId>(rng.UniformInt(4 * users)));
    }
    for (UserId user : ids) {
      aggregate.pairs.push_back(
          akg::PackPair(static_cast<KeywordId>(k), user));
    }
  }
  return aggregate;
}

// A Zipf stream cut into 200-message quanta: each message has a user
// drawn from 2000 (Zipf 0.8) and 1-6 keywords drawn from a vocabulary of
// `words` (Zipf 1.0), the long-tailed regime of the paper's streams.
std::vector<stream::Quantum> ZipfQuanta(std::size_t count, std::uint64_t seed,
                                        std::size_t words = 5000) {
  Rng rng(seed);
  const ZipfSampler users(2000, 0.8);
  const ZipfSampler vocabulary(words, 1.0);
  std::vector<stream::Quantum> quanta(count);
  for (std::size_t q = 0; q < count; ++q) {
    quanta[q].index = static_cast<QuantumIndex>(q);
    quanta[q].messages.resize(200);
    for (stream::Message& m : quanta[q].messages) {
      m.user = static_cast<UserId>(users.Sample(rng));
      const std::size_t keywords = 1 + rng.UniformInt(6);
      for (std::size_t i = 0; i < keywords; ++i) {
        m.keywords.push_back(static_cast<KeywordId>(vocabulary.Sample(rng)));
      }
    }
  }
  return quanta;
}

// One quantum reduced to its canonical (keyword, user) aggregate.
void BM_AggregateQuantum(benchmark::State& state) {
  const std::vector<stream::Quantum> quanta = ZipfQuanta(64, 9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(akg::AggregateQuantum(quanta[i++ % 64]));
  }
}
BENCHMARK(BM_AggregateQuantum);

// Steady-state id-set ingest at w = 30: one quantum's aggregate merged
// into the window tables, the quantum 30 back expiring. The window is
// full before timing starts.
void BM_IdSetIngest(benchmark::State& state) {
  const std::vector<stream::Quantum> quanta = ZipfQuanta(256, 10);
  std::vector<akg::QuantumAggregate> aggregates;
  aggregates.reserve(quanta.size());
  for (const stream::Quantum& quantum : quanta) {
    aggregates.push_back(akg::AggregateQuantum(quantum));
  }
  akg::UserIdSets sets(30);
  for (std::size_t q = 0; q < 30; ++q) {
    sets.IngestAggregate(aggregates[q]);
  }
  std::size_t i = 30;
  for (auto _ : state) {
    sets.IngestAggregate(aggregates[i++ % aggregates.size()]);
  }
  benchmark::DoNotOptimize(sets.active_keywords());
}
BENCHMARK(BM_IdSetIngest);

// Steady-state node automaton at w = 30, theta = 3: each quantum's
// keyword runs (~410 keywords of a 20000-word Zipf vocabulary) merged into
// ~5.5k tracked keywords and ~170 AKG members, a quarter of the keywords
// held by a cluster. The window is full before timing starts.
void BM_NodeStateQuantum(benchmark::State& state) {
  const std::vector<stream::Quantum> quanta = ZipfQuanta(256, 11, 20000);
  std::vector<std::vector<std::pair<KeywordId, std::uint32_t>>> runs;
  runs.reserve(quanta.size());
  for (const stream::Quantum& quantum : quanta) {
    runs.push_back(akg::KeywordCounts(akg::AggregateQuantum(quantum)));
  }
  const std::function<bool(KeywordId)> in_cluster = [](KeywordId k) {
    return k % 4 == 0;
  };
  akg::NodeStateAutomaton automaton(3, 30);
  QuantumIndex now = 0;
  for (; now < 30; ++now) automaton.ProcessQuantum(now, runs[now], in_cluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(automaton.ProcessQuantum(
        now, runs[static_cast<std::size_t>(now) % runs.size()], in_cluster));
    ++now;
  }
  state.counters["tracked"] =
      static_cast<double>(automaton.tracked_keywords());
  state.counters["akg"] = static_cast<double>(automaton.akg_size());
}
BENCHMARK(BM_NodeStateQuantum);

// Exact EC: the merge intersection of two sorted window id sets.
void BM_ExactJaccard(benchmark::State& state) {
  akg::UserIdSets sets(30);
  sets.IngestAggregate(
      RandomAggregate(2, static_cast<std::size_t>(state.range(0)), 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets.Jaccard(0, 1));
  }
}
BENCHMARK(BM_ExactJaccard)->Arg(16)->Arg(128)->Arg(1024);

// Cluster support: the union size of k sorted member id sets of n users.
void BM_ClusterSupport(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  akg::UserIdSets sets(30);
  sets.IngestAggregate(
      RandomAggregate(k, static_cast<std::size_t>(state.range(1)), 8));
  std::vector<KeywordId> members(k);
  for (std::size_t i = 0; i < k; ++i) members[i] = static_cast<KeywordId>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets.UnionSupport(members));
  }
}
BENCHMARK(BM_ClusterSupport)->ArgsProduct({{2, 4, 8}, {128, 1024}});

}  // namespace

BENCHMARK_MAIN();
