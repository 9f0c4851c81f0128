// Micro-benchmarks (google-benchmark) of the hot primitives: graph
// mutation, short-cycle queries, incremental cluster maintenance vs offline
// recomputation, Min-Hash signatures and exact Jaccard.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "akg/id_sets.h"
#include "akg/minhash.h"
#include "cluster/maintenance.h"
#include "cluster/offline.h"
#include "common/random.h"
#include "graph/graph.h"
#include "graph/short_cycle.h"

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
  // QuantumSketch takes a distinct-user set.
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  const akg::WeightedMinHasher hasher(8, 42, /*weighted=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        akg::WeightedMinHasher::Values(hasher.QuantumSketch(0, users, {})));
  }
}
BENCHMARK(BM_MinHashSignature)->Arg(16)->Arg(128)->Arg(1024);

void BM_ExactJaccard(benchmark::State& state) {
  akg::UserIdSets sets(30);
  Rng rng(7);
  sets.BeginQuantum();
  for (int i = 0; i < state.range(0); ++i) {
    sets.Add(1, static_cast<UserId>(rng.UniformInt(100000)));
    sets.Add(2, static_cast<UserId>(rng.UniformInt(100000)));
  }
  sets.EndQuantum();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets.Jaccard(1, 2));
  }
}
BENCHMARK(BM_ExactJaccard)->Arg(16)->Arg(128)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
