// Cross-validation and robustness tests: library primitives checked against
// independent brute-force definitions on random inputs, end-to-end
// determinism, and malformed-input handling.

#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "engine/parallel_detector.h"
#include "graph/bcc.h"
#include "graph/short_cycle.h"
#include "stream/synthetic.h"
#include "stream/trace.h"

namespace scprt {
namespace {

using graph::DynamicGraph;
using graph::NodeId;

DynamicGraph RandomGraph(Rng& rng, int nodes, double p) {
  DynamicGraph g;
  for (NodeId a = 0; a < static_cast<NodeId>(nodes); ++a) {
    g.AddNode(a);
    for (NodeId b = a + 1; b < static_cast<NodeId>(nodes); ++b) {
      if (rng.Bernoulli(p)) g.AddEdge(a, b);
    }
  }
  return g;
}

// Connected components count by BFS (independent of the library graph
// algorithms beyond adjacency).
std::size_t ComponentCount(const DynamicGraph& g,
                           NodeId skip = kInvalidKeyword) {
  std::set<NodeId> unvisited;
  for (NodeId n : g.Nodes()) {
    if (n != skip) unvisited.insert(n);
  }
  std::size_t components = 0;
  while (!unvisited.empty()) {
    ++components;
    std::vector<NodeId> queue = {*unvisited.begin()};
    unvisited.erase(unvisited.begin());
    while (!queue.empty()) {
      const NodeId n = queue.back();
      queue.pop_back();
      for (NodeId m : g.Neighbors(n)) {
        if (m == skip) continue;
        auto it = unvisited.find(m);
        if (it != unvisited.end()) {
          unvisited.erase(it);
          queue.push_back(m);
        }
      }
    }
  }
  return components;
}

// Brute-force articulation test: v is an articulation point iff removing it
// disconnects previously-connected neighbors (components increase, counting
// only among remaining non-isolated structure).
std::vector<NodeId> BruteForceArticulations(const DynamicGraph& g) {
  std::vector<NodeId> result;
  const std::size_t base = ComponentCount(g);
  for (NodeId v : g.Nodes()) {
    if (g.Degree(v) < 2) continue;
    // Removing v removes one node; components among the rest:
    const std::size_t without = ComponentCount(g, v);
    // v itself accounted: base counts v's component once. If removal splits
    // it, without > base - (v was its own component ? 1 : 0) ... v has
    // degree >= 2 so it belonged to a component with others.
    if (without > base) result.push_back(v);
  }
  std::sort(result.begin(), result.end());
  return result;
}

class ArticulationCrossCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ArticulationCrossCheck, TarjanMatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 5 + static_cast<int>(rng.UniformInt(12));
    const double p = 0.1 + 0.3 * rng.UniformDouble();
    const DynamicGraph g = RandomGraph(rng, n, p);
    const auto tarjan = graph::BiconnectedComponents(g).articulation_points;
    const auto brute = BruteForceArticulations(g);
    EXPECT_EQ(tarjan, brute) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArticulationCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 13));

// Brute-force short-cycle check: a path of length <= 3 between u and v not
// using the direct edge.
bool BruteForceShortCycle(const DynamicGraph& g, NodeId u, NodeId v) {
  for (NodeId a : g.Neighbors(u)) {
    if (a == v) continue;
    if (g.HasEdge(a, v)) return true;  // length-2 path
    for (NodeId b : g.Neighbors(a)) {
      if (b == u || b == v) continue;
      if (g.HasEdge(b, v)) return true;  // length-3 path
    }
  }
  return false;
}

class ShortCycleCrossCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ShortCycleCrossCheck, QueryMatchesBruteForce) {
  Rng rng(GetParam() * 977);
  const DynamicGraph g =
      RandomGraph(rng, 12, 0.15 + 0.25 * rng.UniformDouble());
  for (const graph::Edge& e : g.Edges()) {
    EXPECT_EQ(graph::EdgeOnShortCycle(g, e.u, e.v),
              BruteForceShortCycle(g, e.u, e.v))
        << e.u << "-" << e.v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShortCycleCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 13));

// Cycle enumeration matches the boolean query and contains only real edges.
TEST(ShortCycleEnumeration, ConsistentWithQuery) {
  Rng rng(4242);
  const DynamicGraph g = RandomGraph(rng, 14, 0.3);
  for (const graph::Edge& e : g.Edges()) {
    const auto cycles = graph::ShortCyclesThroughEdge(g, e.u, e.v);
    EXPECT_EQ(!cycles.empty(), graph::EdgeOnShortCycle(g, e.u, e.v));
    for (const auto& cycle : cycles) {
      const auto edges = cycle.CycleEdges();
      EXPECT_EQ(edges.size(), static_cast<std::size_t>(cycle.length));
      bool contains_e = false;
      for (const auto& ce : edges) {
        EXPECT_TRUE(g.HasEdge(ce.u, ce.v));
        contains_e |= (ce == e);
      }
      EXPECT_TRUE(contains_e);
    }
  }
}

// End-to-end determinism: two detectors over the same trace emit identical
// reports (cluster ids included — the pipeline has no hidden nondeterminism
// despite hash-map iteration, because reports are canonically sorted).
TEST(DeterminismTest, DetectorRunsAreReproducible) {
  stream::SyntheticConfig config;
  config.seed = 5;
  config.num_messages = 15'000;
  config.num_events = 4;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);
  detect::DetectorConfig dconfig;
  dconfig.quantum_size = 120;
  dconfig.akg.window_length = 12;

  engine::ParallelDetector a({dconfig, 1}, &trace.dictionary);
  engine::ParallelDetector b({dconfig, 1}, &trace.dictionary);
  const auto ra = a.Run(trace.messages);
  const auto rb = b.Run(trace.messages);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i].events.size(), rb[i].events.size()) << "quantum " << i;
    for (std::size_t j = 0; j < ra[i].events.size(); ++j) {
      EXPECT_EQ(ra[i].events[j].keywords, rb[i].events[j].keywords);
      EXPECT_EQ(ra[i].events[j].cluster_id, rb[i].events[j].cluster_id);
      EXPECT_DOUBLE_EQ(ra[i].events[j].rank, rb[i].events[j].rank);
    }
  }
}

// Malformed trace inputs must fail cleanly, never crash.
TEST(TraceFuzzTest, MutatedTracesFailGracefully) {
  stream::SyntheticConfig config;
  config.num_messages = 300;
  config.num_events = 2;
  config.num_spurious = 0;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);
  std::stringstream buffer;
  ASSERT_TRUE(WriteTrace(trace, buffer));
  const std::string original = buffer.str();

  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = original;
    const int mutations = 1 + static_cast<int>(rng.UniformInt(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.UniformInt(mutated.size());
      switch (rng.UniformInt(3)) {
        case 0:
          mutated[pos] = static_cast<char>('!' + rng.UniformInt(90));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.UniformInt(20));
          break;
        default:
          mutated.insert(pos, 1, 'Z');
      }
    }
    std::stringstream in(mutated);
    stream::SyntheticTrace out;
    (void)stream::ReadTrace(in, out);  // must not crash; result may be false
  }
}

TEST(LoggingTest, LevelGate) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages must not be formatted (the macro's condition
  // short-circuits); above-threshold ones emit to stderr without crashing.
  SCPRT_LOG(kDebug) << "invisible";
  SCPRT_LOG(kError) << "visible " << 42;
  SetLogLevel(before);
}

}  // namespace
}  // namespace scprt
