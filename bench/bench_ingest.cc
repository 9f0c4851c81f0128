// bench_ingest — is the raw-text frontend fast enough to feed the engine?
//
// Three measurements over the same synthetic workload, rendered to raw
// JSONL text in memory:
//
//   core      — the detector alone on pre-tokenized messages (the rate the
//               frontend must sustain so tokenization never becomes the
//               bottleneck);
//   frontend  — tokenize/intern only (NullSink), swept over worker counts;
//   e2e       — the full raw-text path: JSONL -> frontend -> sharded
//               engine.
//
// Emits a human table and a machine-readable BENCH_ingest.json (path
// overridable with --json). The acceptance bar of PR 3: frontend msg/s at
// >= 4 workers must be at least the core detector's msg/s, with zero
// drops under the block policy.
//
//   bench_ingest [--messages N] [--workers a,b,c] [--threads N]
//                [--delta N] [--json PATH]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ingest/assembler.h"
#include "ingest/pipeline.h"
#include "ingest/source.h"
#include "ingest/text_export.h"
#include "text/concurrent_dictionary.h"

using namespace scprt;

namespace {

struct Options {
  std::uint64_t messages = 120'000;
  std::vector<std::size_t> workers = {1, 2, 4, 8};
  std::size_t engine_threads = 4;
  std::size_t quantum_size = 160;
  std::string json_path = "BENCH_ingest.json";
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
    } else if (arg == "--workers") {
      options.workers.clear();
      std::stringstream list(value());
      std::string item;
      while (std::getline(list, item, ',')) {
        options.workers.push_back(std::stoul(item));
      }
    } else if (arg == "--threads") {
      options.engine_threads = std::stoul(value());
    } else if (arg == "--delta") {
      options.quantum_size = std::stoul(value());
    } else if (arg == "--json") {
      options.json_path = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

struct Measurement {
  std::string name;
  std::size_t workers = 0;
  double seconds = 0;
  double msgs_per_sec = 0;
  std::uint64_t shed = 0;
};

double Rate(std::uint64_t messages, double seconds) {
  return seconds > 0 ? static_cast<double>(messages) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);

  bench::PrintHeader("ingest frontend vs detector core throughput");

  stream::SyntheticConfig config = stream::TimeWindowPreset(42);
  config.num_messages = options.messages;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);
  std::string jsonl;
  {
    std::stringstream buffer;
    ingest::WriteJsonl(trace, buffer);
    jsonl = std::move(buffer).str();
  }
  std::printf("workload: %zu messages, %zu keywords, %.1f MiB of JSONL\n\n",
              trace.messages.size(), trace.dictionary.size(),
              static_cast<double>(jsonl.size()) / (1024.0 * 1024.0));

  detect::DetectorConfig detector_config = bench::NominalConfig();
  detector_config.quantum_size = options.quantum_size;

  std::vector<Measurement> results;

  // --- core: detector alone on pre-tokenized messages ---
  double core_rate = 0;
  {
    const bench::RunResult run = bench::RunDetector(
        trace, detector_config, options.engine_threads);
    Measurement m;
    m.name = "core";
    m.workers = options.engine_threads;
    m.seconds = run.throughput.seconds;
    m.msgs_per_sec = Rate(trace.messages.size(), run.throughput.seconds);
    core_rate = m.msgs_per_sec;
    results.push_back(m);
    std::printf("core     (engine %zu thr):            %9.0f msg/s\n",
                options.engine_threads, core_rate);
  }

  // --- frontend-only sweep: tokenize + intern into a NullSink ---
  double frontend_4plus_rate = 0;  // best rate among >=4-worker runs
  double frontend_best_rate = 0;   // best rate overall (fallback gate)
  for (const std::size_t workers : options.workers) {
    std::istringstream input(jsonl);
    ingest::JsonlSource source(input);
    ingest::IngestConfig ingest_config;
    ingest_config.workers = workers;
    text::ConcurrentKeywordDictionary dictionary;
    ingest::IngestPipeline pipeline(ingest_config, &dictionary);
    ingest::NullSink sink;
    const ingest::IngestSnapshot snapshot = pipeline.Run(source, sink);

    Measurement m;
    m.name = "frontend";
    m.workers = workers;
    m.seconds = snapshot.elapsed_seconds;
    m.msgs_per_sec = snapshot.MessagesPerSecond();
    m.shed = snapshot.shed;
    results.push_back(m);
    if (workers >= 4) {
      frontend_4plus_rate = std::max(frontend_4plus_rate, m.msgs_per_sec);
    }
    frontend_best_rate = std::max(frontend_best_rate, m.msgs_per_sec);
    std::printf("frontend (%zu workers):               %9.0f msg/s  "
                "(%.2f us/msg tokenize, shed %llu)\n",
                workers, m.msgs_per_sec, snapshot.TokenizeMicrosPerMessage(),
                static_cast<unsigned long long>(snapshot.shed));
  }

  // --- end to end: raw text through frontend + engine ---
  for (const std::size_t workers : options.workers) {
    std::istringstream input(jsonl);
    ingest::JsonlSource source(input);
    ingest::IngestConfig ingest_config;
    ingest_config.workers = workers;
    text::ConcurrentKeywordDictionary dictionary;
    dictionary.SeedFrom(trace.dictionary);
    ingest::IngestPipeline pipeline(ingest_config, &dictionary);
    engine::ParallelDetectorConfig engine_config;
    engine_config.detector = detector_config;
    engine_config.threads = options.engine_threads;
    engine::ParallelDetector detector(engine_config, &dictionary.view());
    ingest::QuantumAssembler sink = ingest::QuantumAssembler::For(detector);
    const ingest::IngestSnapshot snapshot = pipeline.Run(source, sink);

    Measurement m;
    m.name = "e2e";
    m.workers = workers;
    m.seconds = snapshot.elapsed_seconds;
    m.msgs_per_sec = snapshot.MessagesPerSecond();
    m.shed = snapshot.shed;
    results.push_back(m);
    std::printf("e2e      (%zu workers + %zu engine):   %9.0f msg/s  "
                "(%llu quanta, shed %llu)\n",
                workers, options.engine_threads, m.msgs_per_sec,
                static_cast<unsigned long long>(snapshot.quanta_emitted),
                static_cast<unsigned long long>(snapshot.shed));
  }

  // Gate on the >=4-worker rate; with a custom sweep that has no such
  // run, fall back to the best measured rate rather than an unset zero.
  const double gate_rate =
      frontend_4plus_rate > 0 ? frontend_4plus_rate : frontend_best_rate;
  const bool frontend_keeps_up = gate_rate >= core_rate;
  std::printf("\nfrontend %.0f msg/s vs core %.0f msg/s -> %s\n", gate_rate,
              core_rate,
              frontend_keeps_up ? "frontend keeps the engine fed"
                                : "FRONTEND IS THE BOTTLENECK");

  // --- machine-readable output ---
  FILE* json = std::fopen(options.json_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 options.json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"ingest\",\n  \"messages\": %llu,\n"
               "  \"engine_threads\": %zu,\n  \"quantum_size\": %zu,\n"
               "  \"core_msgs_per_sec\": %.1f,\n"
               "  \"frontend_keeps_up\": %s,\n  \"runs\": [\n",
               static_cast<unsigned long long>(options.messages),
               options.engine_threads, options.quantum_size, core_rate,
               frontend_keeps_up ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"workers\": %zu, "
                 "\"seconds\": %.6f, \"msgs_per_sec\": %.1f, "
                 "\"shed\": %llu}%s\n",
                 m.name.c_str(), m.workers, m.seconds, m.msgs_per_sec,
                 static_cast<unsigned long long>(m.shed),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", options.json_path.c_str());

  return frontend_keeps_up ? 0 : 1;
}
