// Section 7.4 — Impact of using the AKG instead of the full CKG.
//
// The paper measures: AKG edges < 2% of CKG edges, < 5% of keywords bursty,
// average AKG degree < 6, average cluster size < 7. We build the true CKG
// (akg::WindowedCkg — every co-occurrence edge of the window) alongside the
// AKG and report the same ratios.

#include <cstdio>

#include "akg/akg_builder.h"
#include "akg/ckg.h"
#include "bench_util.h"
#include "cluster/maintenance.h"
#include "stream/quantizer.h"

int main() {
  using namespace scprt;
  bench::PrintHeader("Section 7.4: AKG vs CKG size reduction");

  stream::SyntheticConfig trace_config = stream::TimeWindowPreset(4242);
  trace_config.num_messages = 40'000;  // CKG construction is the expensive part
  const stream::SyntheticTrace trace =
      stream::GenerateSyntheticTrace(trace_config);

  const detect::DetectorConfig config = bench::NominalConfig();
  cluster::ScpMaintainer maintainer;
  akg::AkgBuilder builder(config.akg, maintainer);
  akg::WindowedCkg ckg(config.akg.window_length);

  double edge_ratio_sum = 0.0, node_ratio_sum = 0.0, bursty_ratio_sum = 0.0;
  double akg_degree_sum = 0.0, cluster_size_sum = 0.0;
  double pair_screen_sum = 0.0;
  std::size_t samples = 0, cluster_samples = 0;

  for (const stream::Quantum& quantum :
       stream::SplitIntoQuanta(trace.messages, config.quantum_size)) {
    maintainer.SetClock(quantum.index);
    maintainer.Apply(builder.ProcessQuantum(quantum));
    ckg.PushQuantum(quantum);
    if (!ckg.warm()) continue;

    const auto& stats = builder.last_stats();
    if (ckg.edge_count() > 0) {
      edge_ratio_sum += 100.0 * static_cast<double>(stats.akg_edges) /
                        static_cast<double>(ckg.edge_count());
    }
    if (ckg.node_count() > 0) {
      node_ratio_sum += 100.0 * static_cast<double>(stats.akg_nodes) /
                        static_cast<double>(ckg.node_count());
      bursty_ratio_sum += 100.0 * static_cast<double>(stats.bursty) /
                          static_cast<double>(ckg.node_count());
    }
    if (stats.akg_nodes > 0) {
      akg_degree_sum += 2.0 * static_cast<double>(stats.akg_edges) /
                        static_cast<double>(stats.akg_nodes);
    }
    pair_screen_sum += static_cast<double>(stats.pairs_screened);
    ++samples;
    for (const auto& [id, cluster] : maintainer.clusters().clusters()) {
      (void)id;
      cluster_size_sum += static_cast<double>(cluster->node_count());
      ++cluster_samples;
    }
  }

  std::printf("samples (warm quanta): %zu\n\n", samples);
  std::printf("AKG edges as %% of CKG edges (avg):      %.2f%%\n",
              samples ? edge_ratio_sum / samples : 0.0);
  std::printf("AKG nodes as %% of CKG window nodes:     %.2f%%\n",
              samples ? node_ratio_sum / samples : 0.0);
  std::printf("bursty keywords per quantum (%% of CKG): %.2f%%\n",
              samples ? bursty_ratio_sum / samples : 0.0);
  std::printf("average AKG degree:                     %.2f\n",
              samples ? akg_degree_sum / samples : 0.0);
  std::printf("average live cluster size (nodes):      %.2f\n",
              cluster_samples ? cluster_size_sum / cluster_samples : 0.0);
  std::printf("avg EC candidate pairs per quantum:     %.1f\n",
              samples ? pair_screen_sum / samples : 0.0);
  std::printf(
      "\nexpected shape (paper Sec 7.4): AKG a few %% of CKG edges, < 5%% "
      "keywords bursty, avg degree < 6, avg cluster < ~7 nodes.\n");
  return 0;
}
