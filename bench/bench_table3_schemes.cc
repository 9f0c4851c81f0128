// Table 3 + Section 7.3 — SCP clusters vs offline bi-connected clusters
// (Bansal et al.-style, recomputed on the whole AKG each quantum) vs
// bi-connected clusters + bridge edges reported as size-2 clusters.
//
// Reported, as in the paper: events discovered, precision, recall, average
// rank, average cluster size per scheme; additional clusters Ac and
// additional events AE of the offline method; exact-overlap fraction; and
// the runtime advantage of incremental SCP maintenance over per-quantum
// offline recomputation.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <set>
#include <unordered_set>
#include <vector>

#include "akg/akg_builder.h"
#include "baseline/bcc_clustering.h"
#include "baseline/comparison.h"
#include "bench_util.h"
#include "cluster/maintenance.h"
#include "eval/table.h"
#include "rank/ranking.h"
#include "stream/quantizer.h"

namespace {

using namespace scprt;
using graph::Edge;

// Per-scheme accumulation. Clusters are identified by their sorted node
// set; a cluster counts as a (new) report the first time its node set is
// seen, uniformly across schemes.
struct SchemeStats {
  const char* name = "";
  std::set<std::vector<graph::NodeId>> seen;
  std::size_t reports = 0;
  std::size_t real_reports = 0;
  std::unordered_set<std::int32_t> events;
  double rank_sum = 0.0;
  double size_sum = 0.0;

  void Consume(const std::vector<std::vector<Edge>>& clusters,
               const eval::GroundTruthMatcher& matcher,
               const akg::AkgBuilder& builder) {
    for (const auto& edges : clusters) {
      const std::vector<graph::NodeId> nodes =
          baseline::ClusterNodes(edges);
      if (!seen.insert(nodes).second) continue;
      ++reports;
      // Rank via Section 6 on the scheme's own cluster: members and
      // distinct edges ascending, the canonical summation order.
      const auto weight = [&builder](graph::NodeId n) {
        return static_cast<double>(builder.NodeWeight(n));
      };
      std::vector<double> weights;
      for (graph::NodeId n : nodes) weights.push_back(weight(n));
      std::vector<Edge> sorted = edges;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      std::vector<rank::EdgeTerm> terms;
      for (const Edge& e : sorted) {
        terms.push_back({weight(e.u), weight(e.v), builder.EdgeCorrelation(e)});
      }
      rank_sum += rank::ClusterRank(weights, terms);
      size_sum += static_cast<double>(nodes.size());
      const eval::ClusterVerdict verdict = matcher.Classify(nodes);
      if (verdict.real) {
        ++real_reports;
        events.insert(verdict.event_id);
      }
    }
  }
};

}  // namespace

int main() {
  bench::PrintHeader("Table 3: SCP vs bi-connected clustering schemes");

  stream::SyntheticConfig trace_config = stream::TimeWindowPreset(77);
  trace_config.num_messages = 80'000;
  const stream::SyntheticTrace trace =
      stream::GenerateSyntheticTrace(trace_config);
  const eval::GroundTruthMatcher matcher(trace.script);

  const detect::DetectorConfig config = bench::NominalConfig();
  cluster::ScpMaintainer maintainer;
  akg::AkgBuilder builder(config.akg, maintainer);

  SchemeStats scp;
  scp.name = "SCP Clusters";
  SchemeStats bc;
  bc.name = "Bi-connected Clusters";
  SchemeStats bc_edges;
  bc_edges.name = "Bi-connected + Edges";
  double scp_seconds = 0.0, bc_seconds = 0.0;
  double overlap_quanta_sum = 0.0;
  double overlap_size_sum = 0.0;
  std::size_t overlap_count = 0;
  std::size_t quanta = 0;

  for (const stream::Quantum& quantum :
       stream::SplitIntoQuanta(trace.messages, config.quantum_size)) {
    maintainer.SetClock(quantum.index);
    const cluster::GraphDelta delta = builder.ProcessQuantum(quantum);

    // Incremental SCP maintenance (timed).
    eval::Stopwatch scp_watch;
    maintainer.Apply(delta);
    const auto scp_clusters = maintainer.CanonicalClusters();
    scp_seconds += scp_watch.ElapsedSeconds();

    // Offline bi-connected recomputation on the same AKG (timed).
    eval::Stopwatch bc_watch;
    const auto bc_clusters =
        baseline::BcClusters(maintainer.graph(), /*edges=*/false);
    const auto bc_edge_clusters =
        baseline::BcClusters(maintainer.graph(), /*edges=*/true);
    bc_seconds += bc_watch.ElapsedSeconds();

    scp.Consume(scp_clusters, matcher, builder);
    bc.Consume(bc_clusters, matcher, builder);
    bc_edges.Consume(bc_edge_clusters, matcher, builder);

    const baseline::ClusterComparison cmp =
        baseline::CompareClusterings(scp_clusters, bc_clusters);
    if (cmp.b_count > 0) {
      overlap_quanta_sum += static_cast<double>(cmp.exact_overlap) /
                            static_cast<double>(cmp.b_count);
      overlap_size_sum += cmp.avg_overlap_size * cmp.exact_overlap;
      overlap_count += cmp.exact_overlap;
      ++quanta;
    }
  }

  const std::size_t planted = trace.script.real_event_count();
  eval::AsciiTable table({"", "SCP Clusters", "Bi-connected Clusters",
                          "Bi-connected + Edges"});
  auto row = [&](const char* label, auto fn) {
    table.AddRow({label, fn(scp), fn(bc), fn(bc_edges)});
  };
  row("Events Discovered", [&](const SchemeStats& s) {
    return eval::AsciiTable::Int(s.events.size());
  });
  row("Precision", [&](const SchemeStats& s) {
    return eval::AsciiTable::Num(
        s.reports ? static_cast<double>(s.real_reports) / s.reports : 0.0,
        3);
  });
  row("Recall", [&](const SchemeStats& s) {
    return eval::AsciiTable::Num(
        planted ? static_cast<double>(s.events.size()) / planted : 0.0, 3);
  });
  row("Avg. Rank", [&](const SchemeStats& s) {
    return eval::AsciiTable::Num(s.reports ? s.rank_sum / s.reports : 0.0,
                                 1);
  });
  row("Avg. Cluster Size", [&](const SchemeStats& s) {
    return eval::AsciiTable::Num(s.reports ? s.size_sum / s.reports : 0.0,
                                 2);
  });
  table.Print(std::cout);

  const double ac_edges =
      scp.reports
          ? 100.0 * (static_cast<double>(bc_edges.reports) - scp.reports) /
                scp.reports
          : 0.0;
  const double ac_no_edges =
      scp.reports
          ? 100.0 * (static_cast<double>(bc.reports) - scp.reports) /
                scp.reports
          : 0.0;
  const double ae =
      scp.events.empty()
          ? 0.0
          : 100.0 *
                (static_cast<double>(bc.events.size()) -
                 static_cast<double>(scp.events.size())) /
                static_cast<double>(scp.events.size());
  std::printf("\nSection 7.3 statistics:\n");
  std::printf("  additional clusters Ac (BC + edges vs SCP): %+.1f%%\n",
              ac_edges);
  std::printf("  additional clusters Ac (BC, no edges):      %+.1f%%\n",
              ac_no_edges);
  std::printf("  additional events AE (BC vs SCP):           %+.1f%%\n", ae);
  std::printf("  exact node-set overlap of BC clusters:      %.1f%%\n",
              quanta ? 100.0 * overlap_quanta_sum / quanta : 0.0);
  std::printf("  avg size of exactly-overlapping clusters:   %.2f\n",
              overlap_count ? overlap_size_sum / overlap_count : 0.0);
  std::printf("  SCP incremental maintenance time:  %.3f s\n", scp_seconds);
  std::printf("  offline BC recomputation time:     %.3f s\n", bc_seconds);
  if (bc_seconds > 0) {
    std::printf("  SCP faster by:                     %.1f%%\n",
                100.0 * (bc_seconds - scp_seconds) / bc_seconds);
  }
  std::printf(
      "\nexpected shape (paper Table 3): SCP wins precision and recall; "
      "BC+edges floods size-2 clusters (Ac ~ +276%%, precision ~0.2); SCP "
      "faster than offline recomputation.\n");
  return 0;
}
