#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "bench/bench_util.h"
#include "detect/report.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"

namespace scprt::perfbench {

stream::SyntheticConfig ScaledPreset(const Shape& shape, std::uint64_t seed,
                                     std::uint64_t messages) {
  stream::SyntheticConfig config =
      shape.event_specific ? stream::EventSpecificPreset(seed)
                           : stream::TimeWindowPreset(seed);
  // The presets plant a fixed number of events in a fixed-length trace;
  // keep their per-message density at any run length.
  const double scale = static_cast<double>(messages) /
                       static_cast<double>(config.num_messages);
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(static_cast<double>(n) *
                                                  scale)));
  };
  config.num_events = scaled(config.num_events);
  config.num_spurious = scaled(config.num_spurious);
  config.num_messages = messages;
  return config;
}

engine::ParallelDetectorConfig EngineFor(std::size_t delta) {
  engine::ParallelDetectorConfig config;
  config.detector = bench::NominalConfig();
  config.detector.quantum_size = delta;
  config.threads = 1;
  return config;
}

std::uint64_t TraceSeed(std::uint64_t seed, std::uint64_t salt) {
  // SplitMix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {
volatile std::uint64_t calibration_sink = 0;
}  // namespace

double CalibrationMs() {
  // Random dependent loads over an 8 MiB table.
  constexpr std::size_t kTableWords = std::size_t{1} << 20;
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> words(kTableWords);
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    for (std::uint64_t& word : words) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      word = x;
    }
    return words;
  }();
  const std::int64_t start = NowNs();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < 300'000; ++i) {
    x = table[(x ^ i) & (kTableWords - 1)] + i;
  }
  // A hash map of small growing lists: hashing, probing and allocation.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> lists;
  std::uint64_t z = x;
  for (std::uint32_t i = 0; i < 200'000; ++i) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    lists[z >> 48].push_back(i);
    const auto it = lists.find((z >> 20) & 0xFFFF);
    if (it != lists.end()) x += it->second.size();
  }
  const std::int64_t end = NowNs();
  calibration_sink = x + lists.size();  // keeps the work from being elided
  return static_cast<double>(end - start) / 1e6;
}

double PassTimes::Slowness(std::size_t pass) const {
  return (calibration_ms[pass] + calibration_ms[pass + 1]) / 2.0 /
         kReferenceCalibrationMs;
}

double PassTimes::ScaledTime(const std::vector<double>& per_pass) const {
  std::vector<double> scaled;
  for (std::size_t p = 0; p < per_pass.size(); ++p) {
    scaled.push_back(per_pass[p] / Slowness(p));
  }
  return Quantile(std::move(scaled), 0.5);
}

double PassTimes::ScaledRate(const std::vector<double>& per_pass) const {
  std::vector<double> scaled;
  for (std::size_t p = 0; p < per_pass.size(); ++p) {
    scaled.push_back(per_pass[p] * Slowness(p));
  }
  return Quantile(std::move(scaled), 0.5);
}

void EmitRawTimes(const PassTimes& times, std::uint64_t messages,
                  std::uint64_t quanta, std::uint64_t restores,
                  Outcome& outcome) {
  outcome.Layer("host.calibration_ms", Quantile(times.calibration_ms, 0.5),
                "ms", times.calibration_ms.size());
  outcome.Layer("raw.setup_s", Quantile(times.setup_s, 0.5), "s",
                times.setup_s.size());
  outcome.Layer("raw.msgs_per_s", Quantile(times.rate, 0.5), "1/s",
                messages);
  outcome.Layer("raw.report_latency_p50_ms", Quantile(times.p50_ms, 0.5),
                "ms", quanta);
  outcome.Layer("raw.recovery_ms", Quantile(times.restore_ms, 0.5), "ms",
                restores);
}

void PassTimes::PrintLast() const {
  const std::size_t p = rate.size() - 1;
  std::fprintf(stderr,
               "pass %zu: set-up %.4f s, %.0f msg/s, p50 %.4f ms, "
               "p99 %.4f ms, restore %.4f ms, calibration %.3f ms\n",
               p, setup_s[p], rate[p], p50_ms[p], p99_ms[p], restore_ms[p],
               calibration_ms[p]);
}

std::uint64_t PassMessages(const Options& options, const Shape& shape) {
  const double messages = static_cast<double>(options.seconds) * shape.rate /
                          static_cast<double>(kPasses);
  const std::uint64_t quanta = static_cast<std::uint64_t>(messages) /
                               shape.delta;
  return std::max<std::uint64_t>(1, quanta) * shape.delta;
}

void Accuracy::Add(const std::vector<detect::QuantumReport>& reports,
                   const stream::SyntheticTrace& trace, std::size_t delta) {
  const eval::GroundTruthMatcher matcher(trace.script);
  const eval::RunMetrics m = eval::EvaluateRun(reports, matcher, delta);
  planted_ += m.events_planted;
  discovered_ += m.events_discovered;
  reported_ += m.clusters_reported;
  real_reports_ += m.real_reports;
  lag_sum_ += m.avg_detection_lag_quanta *
              static_cast<double>(m.events_discovered);
}

double Accuracy::recall() const {
  return planted_ > 0 ? static_cast<double>(discovered_) /
                            static_cast<double>(planted_)
                      : 0.0;
}

double Accuracy::precision() const {
  return reported_ > 0 ? static_cast<double>(real_reports_) /
                             static_cast<double>(reported_)
                       : 0.0;
}

double Accuracy::detection_lag_quanta() const {
  return discovered_ > 0 ? lag_sum_ / static_cast<double>(discovered_) : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::uint64_t> Digests(
    const std::vector<detect::QuantumReport>& reports) {
  std::vector<std::uint64_t> digests;
  digests.reserve(reports.size());
  for (const auto& report : reports) {
    digests.push_back(detect::ReportDigest(report));
  }
  return digests;
}

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kQuantum: return "quantum";
    case SpanName::kSink: return "sink";
    case SpanName::kSource: return "source";
    case SpanName::kProcess: return "process";
    case SpanName::kCommit: return "commit";
    case SpanName::kStore: return "store";
    case SpanName::kQuery: return "query";
    case SpanName::kTrace: return "trace";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint32_t SpanLog::Add(SpanName name, std::int64_t start,
                           std::int64_t end, std::uint32_t parent) {
  spans_.push_back({parent, name, start, end});
  return static_cast<std::uint32_t>(spans_.size());
}

std::array<double, static_cast<std::size_t>(SpanName::kCount)>
SpanLog::SelfNs() const {
  // Children of one parent are sequential on one thread, so the covered
  // part is the sum of their durations clipped to the parent's interval.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent == 0) continue;
    const Span& parent = spans_[span.parent - 1];
    const std::int64_t lo = std::max(span.start, parent.start);
    const std::int64_t hi = std::min(span.end, parent.end);
    if (hi > lo) covered[span.parent - 1] += static_cast<double>(hi - lo);
  }
  std::array<double, static_cast<std::size_t>(SpanName::kCount)> self{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double own =
        static_cast<double>(spans_[i].end - spans_[i].start) - covered[i];
    self[static_cast<std::size_t>(spans_[i].name)] += std::max(0.0, own);
  }
  return self;
}

std::array<std::uint64_t, static_cast<std::size_t>(SpanName::kCount)>
SpanLog::Counts() const {
  std::array<std::uint64_t, static_cast<std::size_t>(SpanName::kCount)>
      counts{};
  for (const Span& span : spans_) {
    ++counts[static_cast<std::size_t>(span.name)];
  }
  return counts;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i + 1
        << ",\"parent\":" << s.parent << ",\"name\":\""
        << SpanNameText(s.name) << "\",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

std::pair<std::uint64_t, std::uint64_t> CountSum(
    const obs::RegistrySnapshot& snapshot, const char* name) {
  const obs::HistogramSnapshot* h = snapshot.FindHistogram(name);
  return h == nullptr ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
                      : std::pair{h->count, h->sum};
}

}  // namespace

double RegistryWindow::HistogramMean(const char* name) const {
  const auto [c0, s0] = CountSum(base_, name);
  const auto [c1, s1] = CountSum(end_, name);
  return c1 > c0 ? static_cast<double>(s1 - s0) / static_cast<double>(c1 - c0)
                 : 0.0;
}

std::uint64_t RegistryWindow::HistogramCount(const char* name) const {
  return CountSum(end_, name).first - CountSum(base_, name).first;
}

std::uint64_t RegistryWindow::CounterDelta(const char* name) const {
  return end_.CounterValue(name) - base_.CounterValue(name);
}

void AccountQuantum(const detect::EventDetector& core,
                    std::size_t events_reported, DetectCounts& counts) {
  const akg::AkgQuantumStats& stats = core.akg().last_stats();
  ++counts.quanta;
  counts.bursty += stats.bursty;
  counts.pairs_screened += stats.pairs_screened;
  counts.ec_computed += stats.ec_computed;
  counts.events_reported += events_reported;
  const cluster::ClusterSet& clusters = core.maintainer().clusters();
  counts.live_clusters += clusters.size();
  // The snapshot's support work: every live cluster reads the window user
  // list of each member keyword.
  for (const auto& [id, cluster] : clusters.clusters()) {
    for (const auto& [node, degree] : cluster->node_degrees()) {
      counts.support_users_scanned += core.akg().NodeWeight(node);
    }
  }
}

void EmitDetectLayers(const DetectCounts& counts,
                      const cluster::MaintenanceStats& stats,
                      const RegistryWindow& registry, Outcome& outcome) {
  const std::uint64_t n = counts.quanta;
  const double q = n > 0 ? static_cast<double>(n) : 1.0;
  auto per_quantum = [q](std::uint64_t v) {
    return static_cast<double>(v) / q;
  };
  for (const char* name : {"engine.aggregate_ns", "engine.route_ns",
                           "engine.reduce_ns", "engine.merge_ns",
                           "engine.shard_detect_ns", "akg.sketch_ingest_ns",
                           "akg.signature_refresh_ns"}) {
    outcome.Layer(name, registry.HistogramMean(name), "ns",
                  registry.HistogramCount(name));
  }
  outcome.Layer("akg.bursty", per_quantum(counts.bursty), "count/quantum", n);
  outcome.Layer("akg.pairs_screened", per_quantum(counts.pairs_screened),
                "count/quantum", n);
  outcome.Layer("akg.ec_computed", per_quantum(counts.ec_computed),
                "count/quantum", n);
  outcome.Layer("akg.edge_yield",
                counts.ec_computed > 0
                    ? static_cast<double>(stats.edges_added) /
                          static_cast<double>(counts.ec_computed)
                    : 0.0,
                "ratio", counts.ec_computed);
  outcome.Layer("cluster.edges_added", per_quantum(stats.edges_added),
                "count/quantum", n);
  outcome.Layer("cluster.short_cycles_found",
                per_quantum(stats.short_cycles_found), "count/quantum", n);
  outcome.Layer("cluster.reclosure_edges_scanned",
                per_quantum(stats.reclosure_edges_scanned), "count/quantum",
                n);
  outcome.Layer("cluster.live_clusters_per_quantum",
                per_quantum(counts.live_clusters), "count/quantum", n);
  outcome.Layer("detect.support_users_scanned_per_quantum",
                per_quantum(counts.support_users_scanned), "count/quantum",
                n);
  outcome.Layer("detect.events_reported_per_quantum",
                per_quantum(counts.events_reported), "count/quantum", n);
}

void EmitSelfTimes(const SpanLog& spans, std::uint64_t quanta,
                   Outcome& outcome) {
  const auto self = spans.SelfNs();
  const auto counts = spans.Counts();
  const double q = quanta > 0 ? static_cast<double>(quanta) : 1.0;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const SpanName name = static_cast<SpanName>(i);
    // Queries run beside the quanta on their own thread: per query.
    const bool per_query = name == SpanName::kQuery;
    const double denom =
        per_query ? std::max<double>(1.0, static_cast<double>(counts[i])) : q;
    outcome.Layer(std::string("self.") + SpanNameText(name) + "_us",
                  self[i] / 1e3 / denom, per_query ? "us/query" : "us/quantum",
                  counts[i]);
  }
}

}  // namespace scprt::perfbench
