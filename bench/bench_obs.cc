// bench_obs — does the observability layer pay for itself?
//
// The tentpole claim of the obs layer is that instrumentation is free
// enough to leave on in production: stage timers and span hooks cost
// relaxed atomic writes plus a bounded number of clock reads per batch.
// This harness measures that claim on the bench_ingest e2e workload
// (raw JSONL -> tokenize/intern frontend -> engine), alternating
// obs::SetEnabled(true/false) across repetitions, and gates the
// enabled-vs-disabled cost difference at < 2%.
//
// A second arm measures the live telemetry service under scrape load: the
// same e2e workload with the HTTP stats server + 1 Hz sampler/watchdog up
// and a client scraping /metrics at 1 Hz, gated against the bare run at
// < 2% throughput cost.
//
// Also measures the histogram Record() hot path in isolation (ns/op).
//
// All JSON metrics are costs (ns/msg, ns/op, overhead fraction) so
// scripts/bench_trend.py treats them as lower-is-better.
//
//   bench_obs [--messages N] [--reps N] [--json PATH]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ingest/assembler.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "ingest/text_export.h"
#include "obs/registry.h"
#include "obs/stats_server.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "text/concurrent_dictionary.h"

using namespace scprt;

namespace {

struct Options {
  std::uint64_t messages = 40'000;
  int reps = 3;
  std::string json_path = "BENCH_obs.json";
};

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--messages") {
      options.messages = std::stoull(value());
    } else if (arg == "--reps") {
      options.reps = std::stoi(value());
    } else if (arg == "--json") {
      options.json_path = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

// One full e2e pass over the prepared JSONL; returns ns per message.
double RunOnce(const std::string& jsonl, std::uint64_t messages,
               const stream::SyntheticTrace& trace,
               const detect::DetectorConfig& detector_config) {
  std::istringstream input(jsonl);
  ingest::JsonlSource source(input);
  ingest::IngestConfig ingest_config;
  ingest_config.workers = 4;
  text::ConcurrentKeywordDictionary dictionary;
  dictionary.SeedFrom(trace.dictionary);
  ingest::IngestPipeline pipeline(ingest_config, &dictionary);
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = detector_config;
  engine::ParallelDetector detector(engine_config, &dictionary.view());
  ingest::QuantumAssembler sink = ingest::QuantumAssembler::For(detector);
  sink.set_keep_reports(false);
  const ingest::IngestSnapshot snapshot = pipeline.Run(source, sink);
  return snapshot.elapsed_seconds * 1e9 /
         static_cast<double>(messages > 0 ? messages : 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);

  bench::PrintHeader("observability overhead (instrumented vs SCPRT_OBS_OFF)");

  stream::SyntheticConfig config = stream::TimeWindowPreset(42);
  config.num_messages = options.messages;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);
  std::string jsonl;
  {
    std::stringstream buffer;
    ingest::WriteJsonl(trace, buffer);
    jsonl = std::move(buffer).str();
  }
  const detect::DetectorConfig detector_config = bench::NominalConfig();
  std::printf("workload: %zu messages of raw JSONL, 4 workers + the "
              "engine, %d reps per mode\n\n",
              trace.messages.size(), options.reps);

  // Warm-up pass (dictionary seeding, page cache, registry registration)
  // charged to neither mode.
  RunOnce(jsonl, options.messages, trace, detector_config);

  // Alternate modes per repetition so drift (thermal, page cache) hits
  // both equally; keep the per-mode minimum, the standard noise floor.
  double on_ns = 1e18;
  double off_ns = 1e18;
  for (int rep = 0; rep < options.reps; ++rep) {
    obs::SetEnabled(true);
    on_ns = std::min(on_ns, RunOnce(jsonl, options.messages, trace,
                                    detector_config));
    obs::SetEnabled(false);
    off_ns = std::min(off_ns, RunOnce(jsonl, options.messages, trace,
                                      detector_config));
  }
  obs::SetEnabled(true);

  const double overhead =
      off_ns > 0 ? (on_ns - off_ns) / off_ns : 0.0;
  std::printf("instrumented: %8.1f ns/msg  (%.0f msg/s)\n", on_ns,
              1e9 / on_ns);
  std::printf("obs off:      %8.1f ns/msg  (%.0f msg/s)\n", off_ns,
              1e9 / off_ns);
  std::printf("overhead:     %+7.2f%%\n\n", overhead * 100.0);

  // Scrape-under-load: the full telemetry service (HTTP stats server plus
  // a 1 Hz sampler/watchdog tick) with a client pulling /metrics at 1 Hz
  // during the run, against the bare workload. Alternated per rep like the
  // first arm; per-mode minimum.
  double scraped_ns = 1e18;
  double bare_ns = 1e18;
  std::uint64_t scrapes = 0;
  // The scrape arm gates CI on its exit code and the signal sits at the
  // noise floor, so take the per-mode minimum over at least 5 pairs.
  const int scrape_reps = std::max(options.reps, 5);
  for (int rep = 0; rep < scrape_reps; ++rep) {
    {
      obs::TelemetryOptions telemetry_options;
      telemetry_options.stats_addr = "127.0.0.1:0";
      telemetry_options.sample_every_seconds = 1.0;
      telemetry_options.build_info = "bench_obs";
      std::string error;
      const auto telemetry = obs::Telemetry::Start(telemetry_options, &error);
      if (telemetry == nullptr) {
        std::fprintf(stderr, "error: telemetry: %s\n", error.c_str());
        return 1;
      }
      const int port = telemetry->stats_server()->port();
      std::atomic<bool> stop{false};
      std::thread scraper([&] {
        // Scrape immediately, then at 1 Hz — short runs still see one.
        while (true) {
          std::string body;
          if (obs::HttpGet("127.0.0.1", port, "/metrics", &body) == 200) {
            ++scrapes;
          }
          for (int tick = 0; tick < 10; ++tick) {
            if (stop.load(std::memory_order_acquire)) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        }
      });
      scraped_ns = std::min(scraped_ns, RunOnce(jsonl, options.messages,
                                                trace, detector_config));
      stop.store(true, std::memory_order_release);
      scraper.join();
    }
    bare_ns = std::min(bare_ns, RunOnce(jsonl, options.messages, trace,
                                        detector_config));
  }
  const double scrape_overhead =
      bare_ns > 0 ? (scraped_ns - bare_ns) / bare_ns : 0.0;
  std::printf("scraped (1 Hz): %8.1f ns/msg  (%llu scrapes served)\n",
              scraped_ns, static_cast<unsigned long long>(scrapes));
  std::printf("bare:           %8.1f ns/msg\n", bare_ns);
  std::printf("scrape cost:    %+7.2f%%\n\n", scrape_overhead * 100.0);

  // Histogram Record() in isolation: the per-event cost every instrumented
  // site pays (bucket index + three relaxed fetch_adds + a CAS max).
  obs::Registry registry;
  obs::Histogram* hist = registry.GetHistogram("bench.lat");
  constexpr std::uint64_t kRecords = 4'000'000;
  const std::int64_t rec_t0 = obs::MonotonicNanos();
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    hist->Record(i & 0xFFFF);
  }
  const double record_ns =
      static_cast<double>(obs::MonotonicNanos() - rec_t0) /
      static_cast<double>(kRecords);
  std::printf("histogram Record(): %.2f ns/op (%llu ops)\n", record_ns,
              static_cast<unsigned long long>(kRecords));

  // < 2% e2e overhead is the acceptance gate. Run-to-run noise on this
  // workload is of the same order, so the gate tolerates a small negative
  // margin being reported as zero.
  const bool pass = overhead < 0.02;
  std::printf("gate: overhead %.2f%% %s 2%% -> %s\n", overhead * 100.0,
              pass ? "<" : ">=", pass ? "PASS" : "FAIL");
  const bool scrape_pass = scrape_overhead < 0.02;
  std::printf("gate: scrape cost %.2f%% %s 2%% -> %s\n",
              scrape_overhead * 100.0, scrape_pass ? "<" : ">=",
              scrape_pass ? "PASS" : "FAIL");

  FILE* json = std::fopen(options.json_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 options.json_path.c_str());
    return 1;
  }
  // Every numeric field is lower-is-better for scripts/bench_trend.py;
  // the "gate" object is skipped by its metric walker.
  std::fprintf(json,
               "{\n  \"bench\": \"obs\",\n  \"messages\": %llu,\n"
               "  \"ns_per_msg_instrumented\": %.1f,\n"
               "  \"ns_per_msg_off\": %.1f,\n"
               "  \"overhead_ns_per_msg\": %.1f,\n"
               "  \"ns_per_msg_scraped\": %.1f,\n"
               "  \"ns_per_msg_bare\": %.1f,\n"
               "  \"scrape_overhead_ns_per_msg\": %.1f,\n"
               "  \"histogram_record_ns\": %.2f,\n"
               "  \"gate\": {\"overhead_fraction\": %.4f, "
               "\"limit\": 0.02, \"pass\": %s},\n"
               "  \"scrape_gate\": {\"overhead_fraction\": %.4f, "
               "\"limit\": 0.02, \"scrapes\": %llu, \"pass\": %s}\n}\n",
               static_cast<unsigned long long>(options.messages), on_ns,
               off_ns, std::max(0.0, on_ns - off_ns), scraped_ns, bare_ns,
               std::max(0.0, scraped_ns - bare_ns), record_ns, overhead,
               pass ? "true" : "false", scrape_overhead,
               static_cast<unsigned long long>(scrapes),
               scrape_pass ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", options.json_path.c_str());

  return pass && scrape_pass ? 0 : 1;
}
