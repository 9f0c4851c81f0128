// Checkpoint micro-bench: native structural restore vs the replay restore
// it replaced (PR 2).
//
// The v1 checkpoint stored 3w quanta of raw messages and rebuilt a fresh
// detector by re-processing them — O(window of traffic). The native format
// deserializes the derived state directly — O(state). This harness runs a
// full-window trace, saves a native snapshot, and times:
//
//   * native save / native load (durability/backend.h), at one thread and
//     at --threads N;
//   * the replaced replay path, simulated faithfully: a fresh detector
//     re-processing the last 3w quanta (exactly what the v1 loader
//     did after parsing).
//
// Acceptance gate of the PR: native restore >= 10x faster than replay.
//
// The WAL arm (--wal-json FILE) compares the two durability backends on
// the same stream: per-quantum commit stall (mean/max), bytes per
// quantum and recovery wall time for the snapshot scheme vs the
// write-ahead log, written as BENCH_wal.json for the CI trend gate. Its
// acceptance gate: the WAL's mean per-quantum commit stall must be
// strictly below the snapshot backend's cadence stall — O(quantum)
// beats O(state), or the log tier has no reason to exist.
//
//   $ ./bench_checkpoint [--threads N] [--wal-json FILE]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "detect/report.h"
#include "durability/backend.h"
#include "stream/quantizer.h"
#include "text/concurrent_dictionary.h"

namespace {

// One backend's side of the WAL-vs-snapshot comparison.
struct DurabilityArmStats {
  double stall_ms_mean = 0.0;   // mean stall of persisting boundaries
  double stall_ms_max = 0.0;
  double bytes_per_quantum = 0.0;
  double recovery_seconds = 0.0;
  std::uint64_t persist_points = 0;
  bool ok = false;
};

// Streams `count` quanta through a fresh engine committing to `kind`,
// then times a cold recovery from the directory it left behind.
DurabilityArmStats RunDurabilityArm(scprt::durability::BackendKind kind,
                                    const scprt::stream::SyntheticTrace& trace,
                                    const scprt::detect::DetectorConfig& config,
                                    std::vector<scprt::stream::Quantum> quanta,
                                    std::size_t count, std::size_t threads) {
  using namespace scprt;
  namespace fs = std::filesystem;
  DurabilityArmStats stats;

  const fs::path dir =
      fs::temp_directory_path() /
      (std::string("scprt_bench_arm_") + durability::BackendKindName(kind));
  std::error_code ec;
  fs::remove_all(dir, ec);

  durability::BackendOptions options;
  options.directory = dir.string();
  options.kind = kind;
  options.fsync = durability::FsyncLevel::kNone;
  options.commit_quanta = 8;
  options.full_interval = 4;
  auto backend = durability::MakeBackend(options);

  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(trace.dictionary);
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = config;
  engine_config.threads = threads == 0 ? 1 : threads;
  engine::ParallelDetector engine(engine_config, &dictionary.view());
  stream::Quantizer quantizer(config.quantum_size);

  std::uint64_t total_bytes = 0;
  std::vector<double> stalls_ms;
  std::uint64_t next_seq = 0;
  for (std::size_t i = 0; i < count; ++i) {
    engine.ProcessQuantum(quanta[i]);
    // Keep the outer clock truthful: the commit context's quantizer must
    // sit exactly at this fence (records validate against its next_index).
    for (const stream::Message& m : quanta[i].messages) quantizer.Push(m);
    next_seq += quanta[i].messages.size();
    durability::CommitContext ctx;
    ctx.quantum = &quanta[i];
    ctx.quantizer = &quantizer;
    ctx.dictionary = &dictionary;
    ctx.state.cursor_record = next_seq;
    ctx.state.next_seq = next_seq;
    ctx.state.quanta_cut = i + 1;
    ctx.state.records_read = next_seq;
    const durability::CommitResult result = backend->Commit(engine, ctx);
    if (!result.error.ok()) {
      std::fprintf(stderr, "%s commit %zu failed: %s\n",
                   durability::BackendKindName(kind), i,
                   result.error.ToString().c_str());
      return stats;
    }
    total_bytes += result.bytes;
    if (result.persisted) stalls_ms.push_back(result.stall_ns / 1e6);
  }

  // Cold recovery: a new backend over the same directory.
  text::ConcurrentKeywordDictionary recovered_dictionary;
  durability::RecoverOptions recover_options;
  recover_options.engine_threads = engine_config.threads;
  recover_options.dictionary = &recovered_dictionary;
  auto cold = durability::MakeBackend(options);
  eval::Stopwatch recover_watch;
  durability::RecoverResult recovered = cold->Recover(recover_options);
  stats.recovery_seconds = recover_watch.ElapsedSeconds();
  if (recovered.outcome != durability::RecoverResult::Outcome::kRecovered ||
      recovered.engine == nullptr ||
      recovered.engine->next_quantum_index() !=
          static_cast<QuantumIndex>(count)) {
    std::fprintf(stderr, "%s recovery failed: %s\n",
                 durability::BackendKindName(kind),
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

void PrintDurabilityArm(const char* name, const DurabilityArmStats& s) {
  std::printf(
      "%-8s : %7.3f ms mean / %7.3f ms max stall  (%3llu persist points), "
      "%8.1f B/quantum, recovery %.3fs\n",
      name, s.stall_ms_mean, s.stall_ms_max,
      static_cast<unsigned long long>(s.persist_points), s.bytes_per_quantum,
      s.recovery_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scprt;
  std::size_t threads = 0;
  std::string wal_json;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      threads =
          static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--wal-json") == 0) {
      wal_json = argv[i + 1];
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
  engine::ParallelDetector detector({config, 1}, &trace.dictionary);
  for (std::size_t q = 0; q < warmup; ++q) {
    detector.ProcessQuantum(quanta[q]);
  }
  std::printf("state after %zu quanta (w = %zu): AKG %zu nodes, "
              "%zu clusters live\n\n",
              warmup, config.akg.window_length,
              detector.core().akg().akg().node_count(),
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

  eval::Stopwatch load_watch;
  auto restored =
      durability::LoadEngineSnapshot(snapshot, &trace.dictionary, 1);
  const double native_s = load_watch.ElapsedSeconds();
  if (restored == nullptr) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }

  // --- the replaced replay path: re-process the last 3w quanta ---
  const std::size_t replay_span =
      std::min(warmup, 3 * config.akg.window_length);
  eval::Stopwatch replay_watch;
  engine::ParallelDetector replayed({config, 1}, &trace.dictionary);
  for (std::size_t q = warmup - replay_span; q < warmup; ++q) {
    replayed.ProcessQuantum(quanta[q]);
  }
  const double replay_s = replay_watch.ElapsedSeconds();

  // Equivalence spot check: the native restore continues bit-identically.
  const detect::QuantumReport expected =
      detector.ProcessQuantum(quanta[warmup]);
  const detect::QuantumReport actual =
      restored->ProcessQuantum(quanta[warmup]);
  const bool identical =
      detect::ReportDigest(expected) == detect::ReportDigest(actual);

  std::printf("snapshot size        : %9.1f KiB\n", bytes.size() / 1024.0);
  std::printf("native save          : %9.3f ms\n", save_s * 1e3);
  std::printf("native load          : %9.3f ms\n", native_s * 1e3);
  std::printf("replay restore (3w)  : %9.3f ms   (the replaced v1 path)\n",
              replay_s * 1e3);
  std::printf("speedup              : %9.1fx\n",
              native_s > 0 ? replay_s / native_s : 0.0);
  std::printf("post-restore reports : %s\n",
              identical ? "bit-identical" : "DIVERGED (bug!)");

  if (threads > 0) {
    std::stringstream in(bytes);
    eval::Stopwatch engine_watch;
    auto engine = durability::LoadEngineSnapshot(in, &trace.dictionary,
                                                 threads);
    const double engine_s = engine_watch.ElapsedSeconds();
    if (engine == nullptr) {
      std::fprintf(stderr, "engine load failed\n");
      return 1;
    }
    std::printf("engine load (%2zu thr) : %9.3f ms (same snapshot, sharded "
                "engine)\n",
                engine->threads(), engine_s * 1e3);
  }

  if (!wal_json.empty()) {
    std::printf("\nDurability backends over the same stream "
                "(cadence 8, full every 4):\n");
    const std::size_t arm_quanta = std::min<std::size_t>(quanta.size(), 64);
    const DurabilityArmStats snap_arm =
        RunDurabilityArm(durability::BackendKind::kSnapshot, trace, config,
                         quanta, arm_quanta, threads);
    const DurabilityArmStats wal_arm =
        RunDurabilityArm(durability::BackendKind::kWal, trace, config,
                         quanta, arm_quanta, threads);
    if (!snap_arm.ok || !wal_arm.ok) return 1;
    PrintDurabilityArm("snapshot", snap_arm);
    PrintDurabilityArm("wal", wal_arm);

    // The log tier's reason to exist: committing every quantum must stall
    // the stream less than the snapshot scheme's cadence checkpoint does.
    const bool gate = wal_arm.stall_ms_mean < snap_arm.stall_ms_mean;
    std::printf("gate     : wal mean stall %s snapshot cadence stall%s\n",
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
                 "  \"threads\": %zu,\n"
                 "  \"snapshot\": {\"stall_ms_mean\": %.4f, "
                 "\"stall_ms_max\": %.4f, \"bytes_per_quantum\": %.1f, "
                 "\"recovery_seconds\": %.4f},\n"
                 "  \"wal\": {\"stall_ms_mean\": %.4f, "
                 "\"stall_ms_max\": %.4f, \"bytes_per_quantum\": %.1f, "
                 "\"recovery_seconds\": %.4f},\n"
                 "  \"gate\": {\"wal_mean_stall_below_snapshot\": %s}\n"
                 "}\n",
                 arm_quanta, config.quantum_size,
                 threads == 0 ? std::size_t{1} : threads,
                 snap_arm.stall_ms_mean, snap_arm.stall_ms_max,
                 snap_arm.bytes_per_quantum, snap_arm.recovery_seconds,
                 wal_arm.stall_ms_mean, wal_arm.stall_ms_max,
                 wal_arm.bytes_per_quantum, wal_arm.recovery_seconds,
                 gate ? "true" : "false");
    std::fclose(out);
    if (!gate) return 1;
  }
  return identical ? 0 : 1;
}
