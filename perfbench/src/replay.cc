// tw_sparse / es_dense: one producer pushes a pre-tokenized trace into a
// QuantumAssembler whose ProcessFn drives a single-threaded
// ParallelDetector — the path scprt_cli ingest and DurableIngest use,
// without the ingest frontend, durability or the store.

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "durability/backend.h"
#include "engine/parallel_detector.h"
#include "ingest/assembler.h"
#include "workloads.h"

namespace scprt::perfbench {

namespace {

/// Quanta of the observability-on prefix replay that checks a run
/// without a traced pass.
constexpr std::size_t kCheckQuanta = 400;

/// What the traced pass gathers beyond a timed pass.
struct Traced {
  SpanLog spans;
  DetectCounts counts;
};

/// A detector state saved during a timed pass, restored after it.
struct SavedState {
  std::string bytes;
  std::uint64_t next_quantum = 0;
  bool ok = false;
};

struct Pass {
  std::unique_ptr<engine::ParallelDetector> detector;
  std::vector<detect::QuantumReport> reports;
  /// Per quantum: closing message offered → report returned.
  std::vector<double> latency_ns;
  /// First message offered → last report returned, less the saves.
  double seconds = 0.0;
  /// kStatesPerPass states, evenly spaced, the last one the final state.
  std::vector<SavedState> saved;
};

/// Replays the first `messages` messages of `trace`. A timed pass
/// (`save`) also saves the detector state after every quantum that ends
/// one of kStatesPerPass equal parts of it; the saves are left out of its
/// timings.
Pass Replay(const stream::SyntheticTrace& trace, std::size_t messages,
            const engine::ParallelDetectorConfig& config, bool save,
            Traced* traced) {
  Pass pass;
  pass.detector =
      std::make_unique<engine::ParallelDetector>(config, &trace.dictionary);
  engine::ParallelDetector& detector = *pass.detector;
  const std::size_t delta = config.detector.quantum_size;
  const std::size_t quanta = messages / delta;
  pass.latency_ns.reserve(quanta + 1);

  std::int64_t offered = 0;      // closing message of the open quantum
  std::int64_t last_report = 0;  // end of the previous quantum
  std::int64_t process_start = 0, process_end = 0, trace_end = 0;
  std::int64_t save_ns = 0, saves_ns = 0;  // this quantum's, all
  std::size_t processed = 0;
  auto process = [&](const stream::Quantum& quantum) {
    detect::QuantumReport report;
    if (traced == nullptr) {
      report = detector.ProcessQuantum(quantum);
    } else {
      process_start = NowNs();
      report = detector.ProcessQuantum(quantum);
      process_end = NowNs();
      AccountQuantum(detector.core(), report.events.size(), traced->counts);
      trace_end = NowNs();
    }
    ++processed;
    if (save && processed * kStatesPerPass % quanta < kStatesPerPass) {
      const std::int64_t s0 = NowNs();
      std::ostringstream out;
      SavedState state;
      state.ok = durability::SaveSnapshot(detector, out).ok();
      state.bytes = std::move(out).str();
      state.next_quantum = detector.next_quantum_index();
      pass.saved.push_back(std::move(state));
      save_ns = NowNs() - s0;
    }
    return report;
  };
  auto on_report = [&](const detect::QuantumReport&) {
    const std::int64_t now = NowNs();
    pass.latency_ns.push_back(static_cast<double>(now - offered - save_ns));
    saves_ns += save_ns;
    save_ns = 0;
    if (traced != nullptr) {
      SpanLog& spans = traced->spans;
      const std::uint32_t q = spans.Add(SpanName::kQuantum, last_report, now);
      spans.Add(SpanName::kSink, last_report, offered, q);
      spans.Add(SpanName::kProcess, process_start, process_end, q);
      spans.Add(SpanName::kTrace, process_end, trace_end, q);
    }
    last_report = now;
  };
  ingest::QuantumAssembler assembler(delta, process, on_report,
                                     /*flush_partial=*/true);

  const std::int64_t start = NowNs();
  last_report = start;
  for (std::size_t i = 0; i < messages; ++i) {
    if ((i + 1) % delta == 0) offered = NowNs();
    assembler.Push(trace.messages[i]);
  }
  offered = NowNs();
  assembler.Finish();
  pass.seconds = static_cast<double>(last_report - start - saves_ns) / 1e9;
  pass.reports = assembler.TakeReports();
  return pass;
}

}  // namespace

Outcome RunReplay(const Options& options, const Shape& shape) {
  Outcome outcome;
  const std::size_t delta = shape.delta;
  const std::uint64_t messages = PassMessages(options, shape);
  const std::uint64_t quanta = messages / delta;
  const std::uint64_t salt = shape.event_specific ? 2 : 1;
  const engine::ParallelDetectorConfig config = EngineFor(delta);
  const std::string snapshot_path = options.run_dir + "/state.snap";

  stream::SyntheticTrace trace;
  PassTimes times;
  std::vector<double> state_ms, restore_ms;
  std::vector<std::uint64_t> digests;  // last pass's
  Accuracy accuracy;
  bool all_reported = true, saves_ok = true, restores_ok = true;
  for (int p = 0; p < kPasses; ++p) {
    times.Calibrate();
    // --- Set-up: trace generation. ---
    const std::int64_t t0 = NowNs();
    trace = stream::GenerateSyntheticTrace(
        ScaledPreset(shape, PassSeed(options.seed, salt, p), messages));
    times.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

    // --- Timed pass: observability off. ---
    obs::SetEnabled(false);
    Pass pass = Replay(trace, messages, config, /*save=*/true, nullptr);
    times.rate.push_back(static_cast<double>(messages) / pass.seconds);
    times.p50_ms.push_back(Quantile(pass.latency_ns, 0.50) / 1e6);
    times.p99_ms.push_back(Quantile(pass.latency_ns, 0.99) / 1e6);
    all_reported = all_reported && pass.reports.size() == quanta;
    accuracy.Add(pass.reports, trace, delta);
    digests = Digests(pass.reports);

    // --- Restart: each saved state, written out and restored cold; the
    // pass's restore time is the median over its states of each state's
    // fastest restore. ---
    restore_ms.clear();
    saves_ok = saves_ok && pass.saved.size() == kStatesPerPass &&
               pass.saved.back().next_quantum == quanta;
    for (const SavedState& state : pass.saved) {
      saves_ok = saves_ok && state.ok;
      {
        std::ofstream out(snapshot_path, std::ios::binary);
        out.write(state.bytes.data(),
                  static_cast<std::streamsize>(state.bytes.size()));
        out.close();
        saves_ok = saves_ok && out.good();
      }
      state_ms.clear();
      for (int i = 0; i < kRestoresPerState; ++i) {
        const std::int64_t r0 = NowNs();
        std::ifstream in(snapshot_path, std::ios::binary);
        durability::Error error;
        std::unique_ptr<engine::ParallelDetector> restored =
            durability::LoadEngineSnapshot(in, &trace.dictionary, 1, nullptr,
                                           &error);
        state_ms.push_back(static_cast<double>(NowNs() - r0) / 1e6);
        restores_ok =
            restores_ok && restored != nullptr &&
            static_cast<std::uint64_t>(restored->next_quantum_index()) ==
                state.next_quantum;
      }
      restore_ms.push_back(
          *std::min_element(state_ms.begin(), state_ms.end()));
    }
    times.restore_ms.push_back(Quantile(restore_ms, 0.5));
    times.PrintLast();
  }
  times.Calibrate();

  // --- Observability on, over the last pass's trace: the traced pass
  // (--trace 1), or a prefix replay. Either must repeat the timed pass's
  // reports bit for bit. ---
  obs::SetEnabled(true);
  Traced traced_state;
  RegistryWindow registry;
  const std::size_t checked =
      options.trace ? messages
                    : std::min<std::uint64_t>(quanta, kCheckQuanta) * delta;
  Pass traced = Replay(trace, checked, config, /*save=*/false,
                       options.trace ? &traced_state : nullptr);
  registry.Close();
  obs::SetEnabled(false);

  // --- Output checks. ---
  outcome.Check("every quantum reported", all_reported);
  const std::vector<std::uint64_t> checked_digests = Digests(traced.reports);
  outcome.Check(options.trace ? "timed digests equal traced digests"
                              : "observability-on prefix digests equal timed",
                checked_digests.size() == checked / delta &&
                    checked_digests.size() <= digests.size() &&
                    std::equal(checked_digests.begin(), checked_digests.end(),
                               digests.begin()));
  // Sanity floors far below the presets' measured accuracy (~0.9): a
  // detector that stops finding the planted events fails the run.
  outcome.Check("recall above 0.5", accuracy.recall() > 0.5);
  outcome.Check("precision above 0.5", accuracy.precision() > 0.5);
  outcome.Check("snapshots saved", saves_ok);
  outcome.Check("cold restores resume at the saved quantum", restores_ok);

  const std::uint64_t passes = static_cast<std::uint64_t>(kPasses);
  outcome.attempted = passes * messages;
  outcome.failed = 0;

  // --- End-to-end metrics: medians over the passes, at the reference
  // host speed. ---
  const std::uint64_t restores = passes * kStatesPerPass * kRestoresPerState;
  outcome.EndToEnd("setup_s", times.ScaledTime(times.setup_s), "s", passes);
  outcome.EndToEnd("msgs_per_s", times.ScaledRate(times.rate), "1/s",
                   passes * messages);
  outcome.EndToEnd("report_latency_p50_ms", times.ScaledTime(times.p50_ms),
                   "ms", passes * quanta);
  outcome.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB", 1);
  outcome.EndToEnd("recall", accuracy.recall(), "ratio", accuracy.planted());
  outcome.EndToEnd("precision", accuracy.precision(), "ratio",
                   accuracy.reported());
  outcome.EndToEnd("detection_lag_quanta", accuracy.detection_lag_quanta(),
                   "quanta", accuracy.discovered());
  outcome.EndToEnd("recovery_ms", times.ScaledTime(times.restore_ms), "ms",
                   restores);
  if (!options.trace) return outcome;

  // --- Per-layer metrics (traced pass). Ingest, durability and the
  // store are bypassed here; run.py reports them as zero. ---
  // The timed passes' p99: host stall phases make it too unsteady across
  // runs to bound (see README.md), so it is reported here, ungated.
  outcome.Layer("report_latency_p99_ms", times.ScaledTime(times.p99_ms),
                "ms", passes * quanta);
  EmitRawTimes(times, passes * messages, passes * quanta, restores, outcome);
  const std::uint64_t traced_quanta = traced_state.counts.quanta;
  // Process spans have no children: their self time is their duration.
  const double process_ns = traced_state.spans.SelfNs()[static_cast<
      std::size_t>(SpanName::kProcess)];
  outcome.Layer("detect.process_us_per_quantum",
                process_ns / 1e3 /
                    std::max(1.0, static_cast<double>(traced_quanta)),
                "us/quantum", traced_quanta);
  EmitDetectLayers(traced_state.counts,
                   traced.detector->core().maintainer().stats(), registry,
                   outcome);
  EmitSelfTimes(traced_state.spans, traced_quanta, outcome);
  outcome.Layer("trace.overhead_ratio",
                (static_cast<double>(messages) / traced.seconds) /
                    Quantile(times.rate, 0.5),
                "ratio", passes);
  if (!options.spans_path.empty()) {
    outcome.Check("spans written",
                  traced_state.spans.WriteJson(options.spans_path));
  }
  return outcome;
}

}  // namespace scprt::perfbench
