// Raw-text firehose demo: the full production path, end to end, with no
// files and no pre-tokenized shortcuts.
//
// Act 1 — an in-memory GeneratorSource renders a synthetic microblog
// stream as raw text; the ingest frontend tokenizes it on a worker pool,
// interns the vocabulary on the fly, cuts δ-sized quanta and drives the
// 4-thread engine, while a monitor thread polls the live ingest metrics the
// way an operations dashboard would. The act closes by proving the
// raw-text path changed nothing: it replays the same token stream
// pre-tokenized and compares report digests.
//
// Act 2 — durability. The same stream runs again through a checkpointing
// DurableIngest session that is "killed" mid-stream (every in-memory
// structure discarded); a second session resumes from the checkpoint
// directory + source cursor, and the stitched report stream must be
// bit-identical to Act 1's uninterrupted run.
//
//   $ ./firehose_ingest [seed] [--trace-out spans.json] [--messages N]
//                       [--stats-addr HOST:PORT] [--sample-every T]
//
// --trace-out captures the per-quantum span hierarchy of Act 1 (quantum →
// aggregate / detect.core) as Chrome about:tracing JSON —
// load it at chrome://tracing or ui.perfetto.dev. --stats-addr starts the
// live telemetry service (see docs/observability.md) for the whole run, so
// /metrics and /healthz can be scraped while the firehose is flowing.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "detect/report.h"
#include "engine/parallel_detector.h"
#include "ingest/assembler.h"
#include "ingest/durable.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"
#include "text/concurrent_dictionary.h"

using namespace scprt;

int main(int argc, char** argv) {
  std::uint64_t seed = 2026;
  std::uint64_t messages = 60'000;
  std::string trace_out;
  std::string stats_addr;
  double sample_every = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--messages") == 0 && i + 1 < argc) {
      messages = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--stats-addr") == 0 && i + 1 < argc) {
      stats_addr = argv[++i];
    } else if (std::strcmp(argv[i], "--sample-every") == 0 && i + 1 < argc) {
      sample_every = std::strtod(argv[++i], nullptr);
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
    }
  }
  if (!trace_out.empty()) obs::Tracer::Default().Enable();

  // --stats-addr keeps the telemetry service up for the whole demo (both
  // acts), the way a deployment would run it beside the pipeline.
  std::unique_ptr<obs::Telemetry> telemetry;
  if (!stats_addr.empty()) {
    obs::TelemetryOptions telemetry_options;
    telemetry_options.stats_addr = stats_addr;
    telemetry_options.sample_every_seconds = sample_every;
    telemetry_options.build_info = "firehose_ingest";
    telemetry_options.config = {{"seed", std::to_string(seed)},
                                {"messages", std::to_string(messages)}};
    std::string error;
    telemetry = obs::Telemetry::Start(telemetry_options, &error);
    if (telemetry == nullptr) {
      std::fprintf(stderr, "error: telemetry: %s\n", error.c_str());
      return 2;
    }
    std::printf("telemetry: serving http://%s/\n",
                telemetry->stats_address().c_str());
  }

  stream::SyntheticConfig trace_config = stream::TimeWindowPreset(seed);
  trace_config.num_messages = messages;
  trace_config.num_events = 8;
  trace_config.num_spurious = 2;
  std::printf("rendering synthetic firehose (seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  ingest::GeneratorSource source(trace_config);

  // The frontend: 4 tokenizer workers, bounded staging queues, blocking
  // backpressure so the closing digest comparison sees a lossless stream.
  // A live deployment that preferred bounded latency over completeness
  // would pick kDropTail or kFairSample here instead.
  ingest::IngestConfig ingest_config;
  ingest_config.workers = 4;
  ingest_config.queue_capacity = 1024;
  ingest_config.admission.policy = ingest::OverloadPolicy::kBlock;

  detect::DetectorConfig detector_config;
  detector_config.quantum_size = 160;

  // Seed the vocabulary so the closing digest comparison is id-for-id
  // (tests/ingest_pipeline_test.cc proves the fresh-dictionary case).
  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(source.trace().dictionary);
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = detector_config;
  engine_config.threads = 4;
  engine::ParallelDetector detector(engine_config, &dictionary.view());
  ingest::IngestPipeline pipeline(ingest_config, &dictionary);

  std::size_t discovered = 0;
  ingest::QuantumAssembler sink = ingest::QuantumAssembler::For(
      detector, [&](const detect::QuantumReport& report) {
        for (const auto& snap : report.events) {
          if (!snap.newly_reported) continue;
          ++discovered;
          std::printf("  [quantum %4lld] %s\n",
                      static_cast<long long>(report.quantum),
                      FormatEvent(snap, dictionary.view()).c_str());
        }
      });

  // A dashboard thread watching the live counters mid-flight: the ingest
  // facade for the headline line, plus the process-wide obs registry for
  // per-stage latency percentiles — the same numbers a Prometheus scrape
  // of Registry::SnapshotAll().FormatPrometheus() would export.
  std::atomic<bool> running{true};
  std::jthread monitor([&] {
    while (running.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const ingest::IngestSnapshot live = pipeline.metrics().Snapshot();
      if (live.records_read == 0) continue;
      std::printf("  ... live: %s\n", live.Format().c_str());
      const obs::RegistrySnapshot reg =
          obs::Registry::Default().SnapshotAll();
      const obs::HistogramSnapshot* agg =
          reg.FindHistogram("engine.aggregate_ns");
      const obs::HistogramSnapshot* detect =
          reg.FindHistogram("ingest.quantum_process_ns");
      if (agg != nullptr && agg->count > 0 && detect != nullptr &&
          detect->count > 0) {
        std::printf(
            "  ... stages: quantum p95 %.0f us (aggregate p95 %.0f us)\n",
            detect->Percentile(0.95) / 1e3, agg->Percentile(0.95) / 1e3);
      }
    }
  });

  std::printf("ingesting raw text on %zu workers + %zu engine threads:\n",
              pipeline.workers(), detector.threads());
  const ingest::IngestSnapshot stats = pipeline.Run(source, sink);
  running.store(false, std::memory_order_release);
  monitor.join();

  std::printf("\ndone: %s\n", stats.Format().c_str());
  std::printf("%zu events discovered, vocabulary %zu keywords\n",
              discovered, dictionary.size());

  // Per-stage latency distribution of the run, straight from the obs
  // registry — the operator's answer to "where did the quantum go?".
  {
    const obs::RegistrySnapshot reg = obs::Registry::Default().SnapshotAll();
    std::printf("stage latencies (us):\n");
    for (const char* name :
         {"ingest.quantum_process_ns", "engine.aggregate_ns",
          "akg.sketch_ingest_ns", "akg.node_state_ns",
          "akg.signature_refresh_ns", "akg.ec_ns", "cluster.apply_delta_ns",
          "detect.snapshot_ns", "detect.sink_ns"}) {
      const obs::HistogramSnapshot* h = reg.FindHistogram(name);
      if (h == nullptr || h->count == 0) continue;
      std::printf("  %-26s p50 %8.1f  p95 %8.1f  max %8.1f  (n=%llu)\n",
                  name, h->Percentile(0.50) / 1e3, h->Percentile(0.95) / 1e3,
                  static_cast<double>(h->max) / 1e3,
                  static_cast<unsigned long long>(h->count));
    }
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << obs::Tracer::Default().DrainJson() << "\n";
    std::printf("trace: wrote act-1 spans -> %s\n", trace_out.c_str());
    obs::Tracer::Default().Disable();
  }
  std::printf("\n");

  // Proof the raw-text path is lossless: the same stream, pre-tokenized
  // through the generator's own dictionary, must produce bit-identical
  // reports (same keyword ids, same ranks, same NEW markers).
  std::printf("replaying the same stream pre-tokenized for comparison...\n");
  text::ConcurrentKeywordDictionary replay_dictionary;
  replay_dictionary.SeedFrom(source.trace().dictionary);
  engine::ParallelDetector replay_detector(engine_config,
                                           &replay_dictionary.view());
  std::vector<std::uint64_t> raw_digests;
  for (const auto& report : sink.reports()) {
    raw_digests.push_back(detect::ReportDigest(report));
  }
  std::vector<std::uint64_t> replay_digests;
  for (const stream::Quantum& quantum :
       stream::SplitIntoQuanta(source.trace().messages,
                               detector_config.quantum_size,
                               /*keep_partial=*/true)) {
    replay_digests.push_back(
        detect::ReportDigest(replay_detector.ProcessQuantum(quantum)));
  }
  const bool identical = raw_digests == replay_digests;
  std::printf("raw-text path vs pre-tokenized path: %zu quanta, %s\n",
              raw_digests.size(),
              identical ? "bit-identical reports" : "DIGESTS DIVERGED");

  // ---- Act 2: kill the deployment mid-stream, resume, compare. ----
  namespace fs = std::filesystem;
  const std::string checkpoint_dir =
      (fs::temp_directory_path() / "firehose_ckpts").string();
  fs::remove_all(checkpoint_dir);
  ingest::DurableConfig durable;
  durable.directory = checkpoint_dir;
  durable.checkpoint_quanta = 16;
  durable.full_interval = 4;

  std::printf(
      "\nrunning the same stream with checkpointing, killing it at "
      "record 36000...\n");
  std::map<QuantumIndex, std::uint64_t> stitched;
  {
    ingest::DurableIngest session(ingest_config, engine_config, durable);
    session.dictionary().SeedFrom(source.trace().dictionary);
    source.Seek(ingest::SourcePosition{});  // rewind the firehose
    ingest::LimitedSource dying(source, 36'000);
    const auto stats = session.Run(
        dying,
        [&](const detect::QuantumReport& report) {
          stitched[report.quantum] = detect::ReportDigest(report);
        },
        /*flush_partial=*/false);
    std::printf("killed after: %s\n", stats->Format().c_str());
  }  // every in-memory structure of the first deployment is gone here

  ingest::DurableIngest session(ingest_config, engine_config, durable);
  const ingest::ResumeResult resume = session.Resume();
  if (resume.outcome != ingest::ResumeResult::Outcome::kResumed) {
    std::printf("RESUME FAILED: %s\n", resume.detail.c_str());
    return 1;
  }
  std::printf("resumed at quantum %lld, source record %llu; replaying the "
              "tail...\n",
              static_cast<long long>(resume.next_quantum),
              static_cast<unsigned long long>(resume.cursor.record_index));
  // Reports from the fence onward come from the resumed session (they
  // overwrite the pre-crash reports for the replayed span — the test of
  // honor is that those are identical anyway).
  const auto resumed_stats = session.Run(
      source,
      [&](const detect::QuantumReport& report) {
        stitched[report.quantum] = detect::ReportDigest(report);
      },
      /*flush_partial=*/true);
  if (!resumed_stats.has_value()) {
    std::printf("RESUME SEEK FAILED\n");
    return 1;
  }
  std::printf("resumed run: %s\n", resumed_stats->Format().c_str());

  std::vector<std::uint64_t> stitched_digests;
  stitched_digests.reserve(stitched.size());
  for (const auto& [quantum, digest] : stitched) {
    stitched_digests.push_back(digest);
  }
  const bool durable_identical = stitched_digests == raw_digests;
  std::printf("kill/resume vs uninterrupted run: %zu quanta, %s\n",
              stitched.size(),
              durable_identical ? "bit-identical reports"
                                : "DIGESTS DIVERGED");
  fs::remove_all(checkpoint_dir);
  return identical && durable_identical ? 0 : 1;
}
