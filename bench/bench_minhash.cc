// Min-Hash sketch micro-bench: per-quantum sketch build cost and the
// window-merge cost of the two reduction strategies — the serial left fold
// (the shape of the replaced rebuild-from-folded-union scheme) vs the
// pairwise tree reduction the AKG builder now uses.
//
// Runs a synthetic trace through the canonical aggregation path, caches
// every keyword's per-quantum sketches, then times:
//
//   * build_ns_per_entry     — QuantumSketch over every (keyword, quantum)
//                              aggregate entry;
//   * serial_fold_ns_per_window / tree_reduce_ns_per_window — producing
//     every keyword's window sketch from its cached per-quantum sketches,
//     once by left fold, once by CombineTree (both reductions give
//     bit-identical sketches; the harness verifies it).
//
// With --json FILE the results are written as a flat metric dict
// (nanoseconds — lower is better) for scripts/bench_trend.py.
//
//   $ ./bench_minhash [--json FILE]

#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "akg/minhash.h"
#include "akg/quantum_aggregate.h"
#include "common/types.h"
#include "eval/throughput.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"

namespace {

using scprt::akg::MinHasher;
using scprt::akg::MinHashSignature;

struct KeywordRing {
  scprt::KeywordId keyword = 0;
  std::vector<MinHashSignature> quanta;  // the window's per-quantum sketches
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  scprt::stream::SyntheticConfig tc;
  tc.seed = 17;
  tc.num_messages = 60'000;
  tc.num_users = 8'000;
  tc.background_vocab = 6'000;
  tc.num_events = 6;
  const scprt::stream::SyntheticTrace trace =
      scprt::stream::GenerateSyntheticTrace(tc);
  const std::vector<scprt::stream::Quantum> quanta =
      scprt::stream::SplitIntoQuanta(trace.messages, 200,
                                     /*keep_partial=*/false);

  std::vector<scprt::akg::QuantumAggregate> aggregates;
  aggregates.reserve(quanta.size());
  std::size_t entries = 0;
  for (const scprt::stream::Quantum& quantum : quanta) {
    aggregates.push_back(scprt::akg::AggregateQuantum(quantum));
    entries += aggregates.back().keywords.size();
  }
  std::printf("%zu quanta, %zu aggregate entries\n", quanta.size(), entries);

  constexpr std::size_t kP = 8;
  constexpr std::size_t kWindow = 30;
  constexpr int kRounds = 5;

  const MinHasher hasher(kP, 0x5ca1ab1eULL);

  // --- sketch build ---
  double build_ns = 0.0;
  {
    scprt::eval::Stopwatch watch;
    std::size_t built = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const scprt::akg::QuantumAggregate& aggregate : aggregates) {
        for (const scprt::akg::QuantumAggregate::Entry& entry :
             aggregate.keywords) {
          // defeat dead-code elimination
          built += hasher.QuantumSketch(entry.users).size();
        }
      }
    }
    build_ns = watch.ElapsedSeconds() * 1e9 / (kRounds * entries);
    std::printf("build                 : %8.1f ns/entry  (checksum %zu)\n",
                build_ns, built);
  }

  // --- window merge: serial fold vs tree reduce over the same rings ---
  std::unordered_map<scprt::KeywordId, KeywordRing> rings;
  for (const scprt::akg::QuantumAggregate& aggregate : aggregates) {
    for (const scprt::akg::QuantumAggregate::Entry& entry :
         aggregate.keywords) {
      KeywordRing& ring = rings[entry.keyword];
      ring.keyword = entry.keyword;
      if (ring.quanta.size() < kWindow) {
        ring.quanta.push_back(hasher.QuantumSketch(entry.users));
      }
    }
  }
  std::size_t windows = 0;
  for (const auto& [keyword, ring] : rings) {
    windows += ring.quanta.size() > 1 ? 1 : 0;
  }
  std::printf("%zu keywords with multi-quantum windows\n", windows);

  double fold_ns = 0.0, tree_ns = 0.0;
  std::size_t mismatches = 0;
  {
    scprt::eval::Stopwatch watch;
    std::size_t sink = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [keyword, ring] : rings) {
        MinHashSignature folded;
        for (const MinHashSignature& part : ring.quanta) {
          folded = MinHasher::Combine(folded, part, kP);
        }
        sink += folded.size();
      }
    }
    fold_ns = watch.ElapsedSeconds() * 1e9 / (kRounds * rings.size());
    std::printf("serial fold           : %8.1f ns/window (checksum %zu)\n",
                fold_ns, sink);
  }
  {
    scprt::eval::Stopwatch watch;
    std::size_t sink = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [keyword, ring] : rings) {
        sink += MinHasher::CombineTree(ring.quanta, kP).size();
      }
    }
    tree_ns = watch.ElapsedSeconds() * 1e9 / (kRounds * rings.size());
    std::printf("tree reduce           : %8.1f ns/window (checksum %zu)\n",
                tree_ns, sink);
  }

  // Correctness spot check: the two reductions agree bit for bit.
  for (const auto& [keyword, ring] : rings) {
    MinHashSignature folded;
    for (const MinHashSignature& part : ring.quanta) {
      folded = MinHasher::Combine(folded, part, kP);
    }
    if (folded != MinHasher::CombineTree(ring.quanta, kP)) {
      ++mismatches;
    }
  }
  std::printf("fold vs tree          : %s\n",
              mismatches == 0 ? "bit-identical" : "DIVERGED (bug!)");
  if (mismatches != 0) return 1;

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    // build.unweighted_ns_per_entry keeps its historical key so the
    // bench_trend.py series stays continuous.
    std::fprintf(out,
                 "{\n"
                 "  \"p\": %zu,\n"
                 "  \"window\": %zu,\n"
                 "  \"build\": {\"unweighted_ns_per_entry\": %.1f},\n"
                 "  \"merge\": {\"serial_fold_ns_per_window\": %.1f, "
                 "\"tree_reduce_ns_per_window\": %.1f}\n"
                 "}\n",
                 kP, kWindow, build_ns, fold_ns, tree_ns);
    std::fclose(out);
  }
  return 0;
}
