// Shared pieces of the benchmark harness: the workload shapes, robust
// statistics, the outcome of one run (metrics + output checks), in-memory
// spans with self-time accounting, and registry deltas.
//
// Everything here lives in the benchmark's own files. Spans are recorded
// around calls into the library's public functions; no timer is added
// inside the library.

#ifndef SCPRT_PERFBENCH_HARNESS_H_
#define SCPRT_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "detect/detector.h"
#include "engine/parallel_detector.h"
#include "obs/registry.h"
#include "stream/synthetic.h"

namespace scprt::perfbench {

inline std::int64_t NowNs() { return obs::MonotonicNanos(); }

/// Timed passes, spread over a run, each over its own trace of the same
/// shape (PassSeed). The host's speed drifts both ways over seconds and
/// minutes (see README.md), so each pass's wall times are scaled by the
/// host calibration around it (PassTimes) and the run reports the median
/// over its passes. Each pass has its own set-up before it and its own
/// restores after it, so those sample the whole run too. The accuracy
/// metrics pool the passes' planted events.
inline constexpr int kPasses = 8;
/// Cold restores of each pass's final state (live_durable).
inline constexpr int kRestoresPerPass = 7;
/// The replays save this many states of each pass, evenly spaced, and
/// restore each kRestoresPerState times: the final state alone varies
/// with its trace far more than the host varies a restore.
inline constexpr std::size_t kStatesPerPass = 4;
inline constexpr int kRestoresPerState = 3;

/// The calibration kernel's time on the reference machine (see
/// README.md): the host speed every scaled wall time is stated at.
inline constexpr double kReferenceCalibrationMs = 60.0;

/// Runs the benchmark's calibration kernel once and returns its wall time
/// in ms. The kernel is a fixed amount of work owned by the benchmark, not
/// by the program under test, of the two kinds the detector does, in
/// about equal time: dependent loads over an 8 MiB table, and a hash map
/// of small growing lists. Its time tracks how fast the host runs such
/// code at the moment.
double CalibrationMs();

/// One run's wall times, pass by pass, and the calibration samples
/// around the passes. Pass p's slowness is the mean of the samples taken
/// before and after it over kReferenceCalibrationMs; a time measured in
/// pass p is divided by it, a rate multiplied, which states both at the
/// reference machine's speed.
struct PassTimes {
  /// Before each pass, and once after the last (kPasses + 1).
  std::vector<double> calibration_ms;
  // One entry per pass.
  std::vector<double> setup_s;
  std::vector<double> rate;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::vector<double> restore_ms;

  /// Takes a calibration sample (before each pass and after the last).
  void Calibrate() { calibration_ms.push_back(CalibrationMs()); }
  double Slowness(std::size_t pass) const;
  /// Median over the passes of each pass's time (or rate) scaled by its
  /// slowness.
  double ScaledTime(const std::vector<double>& per_pass) const;
  double ScaledRate(const std::vector<double>& per_pass) const;
  /// Prints the last pass's raw figures and slowness on stderr.
  void PrintLast() const;
};

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the timed work: `seconds` times the workload's rate (see
  /// Shape) messages, split evenly over kPasses.
  int seconds = 10;
  /// Print the per-layer metrics (traced pass) instead of the end-to-end
  /// ones (timed passes).
  bool trace = false;
  /// Per-run scratch directory (WAL, store, snapshot); removed at exit.
  std::string run_dir;
  /// Where the traced pass writes its spans (empty: not written).
  std::string spans_path;
};

/// The fixed shape of a workload. Message counts are derived from the run
/// length; event counts scale with them so the density matches the preset.
struct Shape {
  bool event_specific = false;  ///< ES preset (else TW)
  std::size_t delta = 160;      ///< quantum size δ
  /// Messages per second of run length. For the closed-loop replays it
  /// only sizes the work; the paced workload also offers them at this rate.
  double rate = 0;
};

/// The preset for `shape`, seeded, with `messages` messages and its event
/// and spurious counts scaled by messages / preset messages.
stream::SyntheticConfig ScaledPreset(const Shape& shape, std::uint64_t seed,
                                     std::uint64_t messages);

/// The engine every workload drives: the paper's Table 2 nominal settings
/// (bench::NominalConfig) at quantum size `delta`, on one thread.
engine::ParallelDetectorConfig EngineFor(std::size_t delta);

/// Mixes the run seed with a workload salt into a trace seed.
std::uint64_t TraceSeed(std::uint64_t seed, std::uint64_t salt);

/// The trace seed of pass `pass` of a run of workload `salt`.
inline std::uint64_t PassSeed(std::uint64_t seed, std::uint64_t salt,
                              int pass) {
  return TraceSeed(TraceSeed(seed, salt), static_cast<std::uint64_t>(pass));
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);

/// Messages per pass: the run's work split over its passes, in whole
/// quanta (at least one).
std::uint64_t PassMessages(const Options& options, const Shape& shape);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// detect::ReportDigest of each report, in order.
std::vector<std::uint64_t> Digests(
    const std::vector<detect::QuantumReport>& reports);

/// Accuracy against the planted ground truth, pooled over passes.
class Accuracy {
 public:
  /// Adds one pass: `reports` of a run over `trace` at quantum size `delta`.
  void Add(const std::vector<detect::QuantumReport>& reports,
           const stream::SyntheticTrace& trace, std::size_t delta);

  double recall() const;
  double precision() const;
  double detection_lag_quanta() const;
  std::uint64_t planted() const { return planted_; }
  std::uint64_t reported() const { return reported_; }
  std::uint64_t discovered() const { return discovered_; }

 private:
  std::uint64_t planted_ = 0;
  std::uint64_t discovered_ = 0;
  std::uint64_t reported_ = 0;
  std::uint64_t real_reports_ = 0;
  double lag_sum_ = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// What one run produced: metrics, output checks and attempt counts.
struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void EndToEnd(std::string name, double value, std::string unit,
                std::uint64_t samples) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Layer(std::string name, double value, std::string unit,
             std::uint64_t samples) {
    layers.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Check(std::string what, bool ok) {
    checks.emplace_back(std::move(what), ok);
  }
};

/// Span names of the layer boundaries the benchmark records.
enum class SpanName : std::uint8_t {
  kQuantum,  ///< one quantum, from the previous report to this report
  kSink,     ///< pushing the quantum's messages into the assembler
  kSource,   ///< one paced MessageSource::Next call
  kProcess,  ///< detection of the quantum (ParallelDetector)
  kCommit,   ///< the durability commit of the quantum
  kStore,    ///< one EventIndexer::OnCluster call
  kQuery,    ///< one LshIndex::Query call (reader thread)
  kTrace,    ///< the traced pass's own per-quantum accounting
  kCount,
};

const char* SpanNameText(SpanName name);

/// Spans kept in memory: name, start, end and parent (0 = root; ids are
/// 1-based positions). Single-threaded; the reader thread keeps its own.
class SpanLog {
 public:
  std::uint32_t Add(SpanName name, std::int64_t start, std::int64_t end,
                    std::uint32_t parent = 0);

  /// Total self time per name: each span's duration minus the part of its
  /// interval that its children cover.
  std::array<double, static_cast<std::size_t>(SpanName::kCount)> SelfNs()
      const;
  /// Spans per name.
  std::array<std::uint64_t, static_cast<std::size_t>(SpanName::kCount)>
  Counts() const;

  /// Writes {"spans":[{"id","parent","name","start_ns","end_ns"},...]}.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t parent;
    SpanName name;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
};

/// Registry readings relative to a baseline: histogram count/sum and
/// counter deltas of obs::Registry::Default() since construction.
class RegistryWindow {
 public:
  RegistryWindow() : base_(obs::Registry::Default().SnapshotAll()) {}

  /// Takes the closing snapshot (call once, after the measured work).
  void Close() { end_ = obs::Registry::Default().SnapshotAll(); }

  /// Mean of a histogram's values recorded inside the window (0 if none).
  double HistogramMean(const char* name) const;
  std::uint64_t HistogramCount(const char* name) const;
  std::uint64_t CounterDelta(const char* name) const;

 private:
  obs::RegistrySnapshot base_;
  obs::RegistrySnapshot end_;
};

/// Per-quantum accounting of the detector's own statistics, gathered from
/// public accessors after each quantum of the traced pass.
struct DetectCounts {
  std::uint64_t quanta = 0;
  std::uint64_t bursty = 0;
  std::uint64_t pairs_screened = 0;
  std::uint64_t ec_computed = 0;
  std::uint64_t live_clusters = 0;
  std::uint64_t support_users_scanned = 0;
  std::uint64_t events_reported = 0;
};

/// Adds one quantum's statistics of `core` (after it processed the
/// quantum) and its report's event count to `counts`.
void AccountQuantum(const detect::EventDetector& core,
                    std::size_t events_reported, DetectCounts& counts);

/// Emits the detector-side layer metrics (engine, akg, cluster, rank)
/// shared by every workload: `counts` from the traced pass, `stats` the
/// maintainer counters of its (fresh) detector, `registry` the window
/// around it.
void EmitDetectLayers(const DetectCounts& counts,
                      const cluster::MaintenanceStats& stats,
                      const RegistryWindow& registry, Outcome& outcome);

/// Emits the host calibration and the unscaled wall times of the timed
/// passes (medians over the passes): what this host measured.
void EmitRawTimes(const PassTimes& times, std::uint64_t messages,
                  std::uint64_t quanta, std::uint64_t restores,
                  Outcome& outcome);

/// Emits self time per span name, per quantum.
void EmitSelfTimes(const SpanLog& spans, std::uint64_t quanta,
                   Outcome& outcome);

}  // namespace scprt::perfbench

#endif  // SCPRT_PERFBENCH_HARNESS_H_
