// Min-Hash sketch micro-bench: sketch build cost and two ways to get a
// keyword's window signature — rehashing the window's distinct users (what
// the AKG builder does at refresh time), or merging cached per-quantum
// sketches by left fold (CombineAll, as the cluster export does).
//
// Runs a synthetic trace through the canonical aggregation path, gathers
// every keyword's first `kWindow` quanta (their per-quantum sketches and
// the distinct union of their users), then times:
//
//   * build_ns_per_entry     — Sketch over every (keyword, quantum)
//                              aggregate entry;
//   * window_rehash_ns_per_window — Sketch over each window's distinct
//                              users;
//   * serial_fold_ns_per_window — each window signature from its cached
//     per-quantum sketches by CombineAll.
//
// Both window signatures must agree bit for bit; the harness checks every
// window and exits 1 on any mismatch.
//
// With --json FILE the results are written as a flat metric dict
// (nanoseconds — lower is better) for scripts/bench_trend.py.
//
//   $ ./bench_minhash [--json FILE]

#include <algorithm>
#include <cstdint>
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

// One keyword's users in one quantum: a run of the aggregate's pairs.
struct QuantumEntry {
  scprt::KeywordId keyword = 0;
  std::vector<scprt::UserId> users;
};

// Splits each aggregate into its keyword runs, quantum by quantum.
std::vector<QuantumEntry> EntriesOf(
    const scprt::akg::QuantumAggregate& aggregate) {
  std::vector<QuantumEntry> entries;
  for (std::uint64_t pair : aggregate.pairs) {
    const scprt::KeywordId keyword = scprt::akg::PairKeyword(pair);
    if (entries.empty() || entries.back().keyword != keyword) {
      entries.push_back({keyword, {}});
    }
    entries.back().users.push_back(scprt::akg::PairUser(pair));
  }
  return entries;
}

struct KeywordRing {
  scprt::KeywordId keyword = 0;
  std::vector<MinHashSignature> quanta;  // the window's per-quantum sketches
  std::vector<scprt::UserId> users;      // the window's distinct users
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
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

  std::vector<std::vector<QuantumEntry>> aggregates;
  aggregates.reserve(quanta.size());
  std::size_t entries = 0;
  for (const scprt::stream::Quantum& quantum : quanta) {
    aggregates.push_back(EntriesOf(scprt::akg::AggregateQuantum(quantum)));
    entries += aggregates.back().size();
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
      for (const std::vector<QuantumEntry>& aggregate : aggregates) {
        for (const QuantumEntry& entry : aggregate) {
          // defeat dead-code elimination
          built += hasher.Sketch(entry.users).size();
        }
      }
    }
    build_ns = watch.ElapsedSeconds() * 1e9 / (kRounds * entries);
    std::printf("build                 : %8.1f ns/entry  (checksum %zu)\n",
                build_ns, built);
  }

  // --- window signature: rehash vs fold over the same windows ---
  std::unordered_map<scprt::KeywordId, KeywordRing> rings;
  for (const std::vector<QuantumEntry>& aggregate : aggregates) {
    for (const QuantumEntry& entry : aggregate) {
      KeywordRing& ring = rings[entry.keyword];
      ring.keyword = entry.keyword;
      if (ring.quanta.size() < kWindow) {
        ring.quanta.push_back(hasher.Sketch(entry.users));
        ring.users.insert(ring.users.end(), entry.users.begin(),
                          entry.users.end());
      }
    }
  }
  for (auto& [keyword, ring] : rings) {
    std::sort(ring.users.begin(), ring.users.end());
    ring.users.erase(std::unique(ring.users.begin(), ring.users.end()),
                     ring.users.end());
  }
  std::size_t windows = 0;
  for (const auto& [keyword, ring] : rings) {
    windows += ring.quanta.size() > 1 ? 1 : 0;
  }
  std::printf("%zu keywords with multi-quantum windows\n", windows);

  double rehash_ns = 0.0, fold_ns = 0.0;
  std::size_t mismatches = 0;
  {
    scprt::eval::Stopwatch watch;
    std::size_t sink = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [keyword, ring] : rings) {
        sink += hasher.Sketch(ring.users).size();
      }
    }
    rehash_ns = watch.ElapsedSeconds() * 1e9 / (kRounds * rings.size());
    std::printf("window rehash         : %8.1f ns/window (checksum %zu)\n",
                rehash_ns, sink);
  }
  {
    scprt::eval::Stopwatch watch;
    std::size_t sink = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& [keyword, ring] : rings) {
        sink += MinHasher::CombineAll(ring.quanta, kP).size();
      }
    }
    fold_ns = watch.ElapsedSeconds() * 1e9 / (kRounds * rings.size());
    std::printf("serial fold           : %8.1f ns/window (checksum %zu)\n",
                fold_ns, sink);
  }

  // Correctness gate: rehash == fold, bit for bit, on every window.
  for (const auto& [keyword, ring] : rings) {
    if (hasher.Sketch(ring.users) != MinHasher::CombineAll(ring.quanta, kP)) {
      ++mismatches;
    }
  }
  std::printf("rehash vs fold        : %s\n",
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
                 "\"window_rehash_ns_per_window\": %.1f}\n"
                 "}\n",
                 kP, kWindow, build_ns, fold_ns, rehash_ns);
    std::fclose(out);
  }
  return 0;
}
