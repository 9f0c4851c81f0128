// scprt_perfbench: one run of one workload.
//
//   scprt_perfbench --workload tw_sparse|es_dense|live_durable --seed N
//                   --seconds S [--trace 0|1] [--run-dir DIR]
//                   [--spans-out PATH]
//
// Prints every metric with its unit and sample count, and the output
// checks, on stderr; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics the workload measured
// (--trace 1), each as {"value", "unit", "samples"}. run.py checks them
// against BENCHMARK.json and fills in the layers a workload bypasses.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "workloads.h"

namespace scprt::perfbench {
namespace {

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "scprt_perfbench: %s\n"
               "usage: scprt_perfbench --workload tw_sparse|es_dense|"
               "live_durable --seed N --seconds S [--trace 0|1]\n"
               "                       [--run-dir DIR] [--spans-out PATH]\n",
               problem);
  std::exit(2);
}

std::uint64_t ParseUnsigned(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') Usage(flag);
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(value, "bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(ParseUnsigned(value, "bad --seconds"));
      if (options.seconds < 1 || options.seconds > 3600) Usage("bad --seconds");
    } else if (flag == "--trace") {
      const std::uint64_t trace = ParseUnsigned(value, "bad --trace");
      if (trace > 1) Usage("bad --trace");
      options.trace = trace == 1;
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else if (flag == "--spans-out") {
      options.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (options.run_dir.empty()) {
    options.run_dir = ".bench_tmp/run-" + std::to_string(::getpid());
  }
  return options;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-42s %16.6f %-14s (n=%llu)\n", m.name.c_str(),
                 m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
  }
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  Shape shape;
  Outcome (*run)(const Options&, const Shape&) = nullptr;
  if (options.workload == "tw_sparse") {
    shape = {/*event_specific=*/false, /*delta=*/160, /*rate=*/60'000};
    run = RunReplay;
  } else if (options.workload == "es_dense") {
    shape = {/*event_specific=*/true, /*delta=*/200, /*rate=*/60'000};
    run = RunReplay;
  } else if (options.workload == "live_durable") {
    shape = {/*event_specific=*/true, /*delta=*/160, /*rate=*/15'000};
    run = RunLive;
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  namespace fs = std::filesystem;
  fs::remove_all(options.run_dir);
  fs::create_directories(options.run_dir);
  Outcome outcome;
  try {
    outcome = run(options, shape);
  } catch (...) {
    fs::remove_all(options.run_dir);
    throw;
  }
  fs::remove_all(options.run_dir);

  std::fprintf(stderr, "workload %s, seed %llu, %d s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds);
  PrintTable("end-to-end (timed passes, observability off):",
             outcome.end_to_end);
  if (options.trace) PrintTable("per-layer (traced pass):", outcome.layers);
  bool correct = true;
  std::fprintf(stderr, "output checks:\n");
  for (const auto& [what, ok] : outcome.checks) {
    std::fprintf(stderr, "  [%s] %s\n", ok ? " ok " : "FAIL", what.c_str());
    correct = correct && ok;
  }
  std::fprintf(stderr, "attempted %llu, failed %llu\n",
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& shown =
      options.trace ? outcome.layers : outcome.end_to_end;
  for (std::size_t i = 0; i < shown.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", shown[i].value);
    json += (i == 0 ? "\"" : ", \"") + shown[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + shown[i].unit +
            "\", \"samples\": " + std::to_string(shown[i].samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace scprt::perfbench

int main(int argc, char** argv) {
  try {
    return scprt::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scprt_perfbench: %s\n", e.what());
    return 1;
  }
}
