// Checkpoint micro-bench: native structural restore vs the replay restore
// it replaced (PR 2).
//
// The v1 checkpoint stored 3w quanta of raw messages and rebuilt a fresh
// detector by re-processing them — O(window of traffic). The native format
// deserializes the derived state directly — O(state). This harness runs a
// full-window trace, saves a native snapshot, and times:
//
//   * native save / native load (durability/backend.h);
//   * the replaced replay path, simulated faithfully: a fresh detector
//     re-processing the last 3w quanta (exactly what the v1 loader
//     did after parsing).
//
// Acceptance gate: native load >= 10x faster than replay, and the
// restored detector's next report bit-identical to the original's; the
// binary exits 1 otherwise. Load and replay are timed in 7 interleaved
// repetitions, each into a fresh detector, and compared by their medians.
//
// The WAL arm (--wal-json FILE) streams quanta through the write-ahead
// log backend: per-quantum commit stall (mean/max), bytes per quantum and
// recovery wall time, written as BENCH_wal.json for the CI trend gate.
// Its acceptance gate: the WAL's mean per-quantum commit stall must be
// strictly below one native full SaveSnapshot of the state the log ends
// at, both measured in the same run — committing a quantum is O(quantum),
// saving the state is O(state), and the log has no reason to exist if
// the former is not the cheaper one.
//
//   $ ./bench_checkpoint [--wal-json FILE]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "detect/report.h"
#include "durability/backend.h"
#include "durability/wal_backend.h"
#include "stream/quantizer.h"
#include "text/concurrent_dictionary.h"

namespace {

// The WAL arm's measurements.
struct WalArmStats {
  double stall_ms_mean = 0.0;   // mean stall of persisting boundaries
  double stall_ms_max = 0.0;
  double bytes_per_quantum = 0.0;
  double recovery_seconds = 0.0;
  /// Median of three native full SaveSnapshot calls on the final state.
  double full_save_ms = 0.0;
  std::uint64_t persist_points = 0;
  bool ok = false;
};

// Streams `count` quanta through a fresh engine committing every quantum
// to a WAL, times full snapshots of the state it ends at, then times a
// cold recovery from the directory it left behind.
WalArmStats RunWalArm(const scprt::stream::SyntheticTrace& trace,
                      const scprt::detect::DetectorConfig& config,
                      const std::vector<scprt::stream::Quantum>& quanta,
                      std::size_t count) {
  using namespace scprt;
  namespace fs = std::filesystem;
  WalArmStats stats;

  const fs::path dir = fs::temp_directory_path() / "scprt_bench_arm_wal";
  std::error_code ec;
  fs::remove_all(dir, ec);

  durability::BackendOptions options;
  options.directory = dir.string();
  options.fsync = durability::FsyncLevel::kNone;
  options.commit_quanta = 8;
  options.full_interval = 4;
  durability::WalBackend backend(options);

  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(trace.dictionary);
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = config;
  engine::ParallelDetector engine(engine_config, &dictionary.view());

  std::uint64_t total_bytes = 0;
  std::vector<double> stalls_ms;
  std::uint64_t next_seq = 0;
  for (std::size_t i = 0; i < count; ++i) {
    engine.ProcessQuantum(quanta[i]);
    next_seq += quanta[i].messages.size();
    durability::CommitContext ctx;
    ctx.quantum = &quanta[i];
    ctx.dictionary = &dictionary;
    ctx.state.cursor_record = next_seq;
    ctx.state.next_seq = next_seq;
    ctx.state.quanta_cut = i + 1;
    ctx.state.records_read = next_seq;
    const durability::CommitResult result = backend.Commit(engine, ctx);
    if (!result.error.ok()) {
      std::fprintf(stderr, "wal commit %zu failed: %s\n", i,
                   result.error.ToString().c_str());
      return stats;
    }
    total_bytes += result.bytes;
    if (result.persisted) stalls_ms.push_back(result.stall_ns / 1e6);
  }

  // The O(state) comparator: a native full save of the same final state.
  std::vector<double> saves_ms;
  for (int i = 0; i < 3; ++i) {
    std::ostringstream sink(std::ios::binary);
    eval::Stopwatch save_watch;
    if (!durability::SaveSnapshot(engine, sink).ok()) {
      std::fprintf(stderr, "full save of the wal arm's state failed\n");
      return stats;
    }
    saves_ms.push_back(save_watch.ElapsedSeconds() * 1e3);
  }
  std::sort(saves_ms.begin(), saves_ms.end());
  stats.full_save_ms = saves_ms[1];

  // Cold recovery: a new backend over the same directory.
  text::ConcurrentKeywordDictionary recovered_dictionary;
  durability::RecoverOptions recover_options;
  recover_options.dictionary = &recovered_dictionary;
  durability::WalBackend cold(options);
  eval::Stopwatch recover_watch;
  durability::RecoverResult recovered = cold.Recover(recover_options);
  stats.recovery_seconds = recover_watch.ElapsedSeconds();
  if (recovered.outcome != durability::RecoverResult::Outcome::kRecovered ||
      recovered.engine == nullptr ||
      recovered.engine->next_quantum_index() !=
          static_cast<QuantumIndex>(count)) {
    std::fprintf(stderr, "wal recovery failed: %s\n",
                 recovered.detail.c_str());
    return stats;
  }

  stats.persist_points = stalls_ms.size();
  for (double ms : stalls_ms) {
    stats.stall_ms_mean += ms;
    stats.stall_ms_max = std::max(stats.stall_ms_max, ms);
  }
  if (!stalls_ms.empty()) stats.stall_ms_mean /= stalls_ms.size();
  stats.bytes_per_quantum = static_cast<double>(total_bytes) / count;
  stats.ok = true;
  fs::remove_all(dir, ec);
  return stats;
}


}  // namespace

int main(int argc, char** argv) {
  using namespace scprt;
  std::string wal_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wal-json") == 0 && i + 1 < argc) {
      wal_json = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--wal-json FILE]\n", argv[0]);
      return 2;
    }
  }
  bench::PrintHeader("Checkpoint: native structural restore vs replay");

  const stream::SyntheticTrace trace =
      stream::GenerateSyntheticTrace(stream::TimeWindowPreset(42));
  const detect::DetectorConfig config = bench::NominalConfig();
  const std::vector<stream::Quantum> quanta =
      stream::SplitIntoQuanta(trace.messages, config.quantum_size);

  // Fill well past the window so hysteresis and evictions are live, as in
  // a long-running deployment.
  const std::size_t warmup =
      std::min(quanta.size() - 1, 5 * config.akg.window_length);
  engine::ParallelDetector detector({config}, &trace.dictionary);
  for (std::size_t q = 0; q < warmup; ++q) {
    detector.ProcessQuantum(quanta[q]);
  }
  std::printf("state after %zu quanta (w = %zu): AKG %zu nodes, "
              "%zu clusters live\n\n",
              warmup, config.akg.window_length,
              detector.core().akg().node_state().akg_size(),
              detector.core().maintainer().clusters().size());

  // --- native save + load ---
  eval::Stopwatch save_watch;
  std::stringstream snapshot;
  if (!durability::SaveSnapshot(detector, snapshot).ok()) {
    std::fprintf(stderr, "save failed\n");
    return 1;
  }
  const double save_s = save_watch.ElapsedSeconds();
  const std::string bytes = snapshot.str();

  // --- native load against the replaced replay path (re-processing the
  //     last 3w quanta), interleaved: each arm is timed kRepetitions
  //     times, loading and replaying into a fresh detector each time, and
  //     reads as its median, so one stalled run cannot decide the gate ---
  constexpr int kRepetitions = 7;
  const std::size_t replay_span =
      std::min(warmup, 3 * config.akg.window_length);
  std::vector<double> loads_s, replays_s;
  std::unique_ptr<engine::ParallelDetector> restored;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    std::istringstream in(bytes);
    eval::Stopwatch load_watch;
    auto loaded = durability::LoadEngineSnapshot(in, &trace.dictionary, 1);
    loads_s.push_back(load_watch.ElapsedSeconds());
    if (loaded == nullptr) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    // The previous load is freed outside the timed region.
    restored = std::move(loaded);

    eval::Stopwatch replay_watch;
    engine::ParallelDetector replayed({config}, &trace.dictionary);
    for (std::size_t q = warmup - replay_span; q < warmup; ++q) {
      replayed.ProcessQuantum(quanta[q]);
    }
    replays_s.push_back(replay_watch.ElapsedSeconds());
  }
  const auto median = [](std::vector<double>& samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };
  const double native_s = median(loads_s);
  const double replay_s = median(replays_s);

  // Equivalence spot check: the native restore continues bit-identically.
  const detect::QuantumReport expected =
      detector.ProcessQuantum(quanta[warmup]);
  const detect::QuantumReport actual =
      restored->ProcessQuantum(quanta[warmup]);
  const bool identical =
      detect::ReportDigest(expected) == detect::ReportDigest(actual);

  std::printf("snapshot size        : %9.1f KiB\n", bytes.size() / 1024.0);
  std::printf("native save          : %9.3f ms\n", save_s * 1e3);
  std::printf("native load          : %9.3f ms   (median of %d)\n",
              native_s * 1e3, kRepetitions);
  std::printf("replay restore (3w)  : %9.3f ms   (median of %d; the "
              "replaced v1 path)\n",
              replay_s * 1e3, kRepetitions);
  const double speedup = native_s > 0 ? replay_s / native_s : 0.0;
  std::printf("speedup              : %9.1fx\n", speedup);
  std::printf("post-restore reports : %s\n",
              identical ? "bit-identical" : "DIVERGED (bug!)");
  const bool restore_gate = speedup >= 10.0;
  std::printf("gate      : native load %s 10x faster than replay%s\n",
              restore_gate ? ">=" : "<", restore_gate ? "" : "  (FAIL)");

  if (!wal_json.empty()) {
    std::printf("\nWAL durability (fsync interval 8, segment every 32 "
                "quanta):\n");
    const std::size_t arm_quanta = std::min<std::size_t>(quanta.size(), 64);
    const WalArmStats wal_arm =
        RunWalArm(trace, config, quanta, arm_quanta);
    if (!wal_arm.ok) return 1;
    std::printf(
        "wal       : %7.3f ms mean / %7.3f ms max stall  (%3llu persist "
        "points), %8.1f B/quantum, recovery %.3fs\n",
        wal_arm.stall_ms_mean, wal_arm.stall_ms_max,
        static_cast<unsigned long long>(wal_arm.persist_points),
        wal_arm.bytes_per_quantum, wal_arm.recovery_seconds);
    std::printf("full save : %7.3f ms (median of 3, same final state)\n",
                wal_arm.full_save_ms);

    // The log's reason to exist: committing a quantum must stall the
    // stream less than saving the whole state does.
    const bool gate = wal_arm.stall_ms_mean < wal_arm.full_save_ms;
    std::printf("gate      : wal mean stall %s full snapshot save%s\n",
                gate ? "<" : ">=", gate ? "" : "  (FAIL)");

    std::FILE* out = std::fopen(wal_json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", wal_json.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"quanta\": %zu,\n"
                 "  \"quantum_size\": %zu,\n"
                 "  \"wal\": {\"stall_ms_mean\": %.4f, "
                 "\"stall_ms_max\": %.4f, \"bytes_per_quantum\": %.1f, "
                 "\"recovery_seconds\": %.4f, \"full_save_ms\": %.4f},\n"
                 "  \"gate\": {\"wal_mean_stall_below_full_save\": %s}\n"
                 "}\n",
                 arm_quanta, config.quantum_size,
                 wal_arm.stall_ms_mean, wal_arm.stall_ms_max,
                 wal_arm.bytes_per_quantum, wal_arm.recovery_seconds,
                 wal_arm.full_save_ms, gate ? "true" : "false");
    std::fclose(out);
    if (!gate) return 1;
  }
  return identical && restore_gate ? 0 : 1;
}
