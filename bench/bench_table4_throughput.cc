// Table 4 — Message processing rate (messages/second) for quantum sizes
// delta in {120, 160, 200} on the TW and ES traces.
//
// Paper shape: TW processes several times faster than ES (higher event
// intensity means more AKG work), and throughput decreases as delta grows.
// Absolute numbers depend on this machine; the paper reports 5185/4420/4160
// (TW) and 1410/1400/1160 (ES) on 2012 hardware.
//
// The table runs the detector (engine/parallel_detector.h) at one
// thread. `--threads N` additionally runs the same traces with an N-thread
// worker pool under the detector's hot loops and prints those rates with
// their measured ratio to the 1-thread rate. Reports are bit-identical at
// every thread count, so the comparison is pure wall-clock; the ratio is
// a measurement, not an expectation, and may be below 1.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <iterator>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "eval/table.h"

namespace {

[[noreturn]] void UsageError(const char* got) {
  std::fprintf(stderr,
               "invalid --threads value '%s'\n"
               "usage: bench_table4_throughput [--threads N]  "
               "(N >= 1; 0 = all hardware threads)\n",
               got);
  std::exit(2);
}

std::size_t ParseThreadValue(const char* text) {
  constexpr long kMaxThreads = 4096;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 0 ||
      value > kMaxThreads) {
    UsageError(text);
  }
  // 0 = derive hardware concurrency, matching ParallelDetectorConfig.
  return static_cast<std::size_t>(value);
}

/// nullopt: flag absent, serial-only run. A value (0 = auto) otherwise.
std::optional<std::size_t> ParseThreads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) UsageError("<missing>");
      return ParseThreadValue(argv[i + 1]);
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      return ParseThreadValue(argv[i] + 10);
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scprt;
  const std::optional<std::size_t> threads_arg = ParseThreads(argc, argv);
  bench::PrintHeader("Table 4: Message processing rate vs quantum size");

  const stream::SyntheticTrace tw =
      stream::GenerateSyntheticTrace(stream::TimeWindowPreset(42));
  const stream::SyntheticTrace es =
      stream::GenerateSyntheticTrace(stream::EventSpecificPreset(43));

  const std::size_t deltas[] = {120, 160, 200};
  eval::AsciiTable table(
      {"Trace Type", "d=120 msg/s", "d=160 msg/s", "d=200 msg/s"});

  const std::pair<const char*, const stream::SyntheticTrace*> traces[] = {
      {"Time Window Based Trace", &tw},
      {"Event Specific Trace", &es},
  };
  std::vector<double> serial_rate_160(std::size(traces), 0.0);
  std::size_t row_index = 0;
  for (const auto& [name, trace] : traces) {
    std::vector<std::string> row = {name};
    for (std::size_t delta : deltas) {
      detect::DetectorConfig config = bench::NominalConfig();
      config.quantum_size = delta;
      const bench::RunResult result = bench::RunDetector(*trace, config);
      const double rate = result.throughput.MessagesPerSecond();
      if (delta == 160) serial_rate_160[row_index] = rate;
      row.push_back(
          eval::AsciiTable::Int(static_cast<std::uint64_t>(rate)));
    }
    table.AddRow(std::move(row));
    ++row_index;
  }
  table.Print(std::cout);
  std::printf(
      "\nexpected shape (paper Table 4): TW >> ES; rate declines with "
      "delta.\n");

  if (threads_arg) {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t threads =
        *threads_arg > 0 ? *threads_arg : (hw > 0 ? hw : 1);
    std::printf("\n--- engine, %zu threads (%u hardware) ---\n\n", threads,
                hw);
    eval::AsciiTable ptable({"Trace Type", "d=120 msg/s", "d=160 msg/s",
                             "d=200 msg/s", "speedup (d=160)"});
    row_index = 0;
    for (const auto& [name, trace] : traces) {
      std::vector<std::string> row = {name};
      double speedup_160 = 0.0;
      for (std::size_t delta : deltas) {
        detect::DetectorConfig config = bench::NominalConfig();
        config.quantum_size = delta;
        const bench::RunResult result =
            bench::RunDetector(*trace, config, threads);
        const double rate = result.throughput.MessagesPerSecond();
        if (delta == 160 && serial_rate_160[row_index] > 0.0) {
          speedup_160 = rate / serial_rate_160[row_index];
        }
        row.push_back(
            eval::AsciiTable::Int(static_cast<std::uint64_t>(rate)));
      }
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.2fx", speedup_160);
      row.push_back(buffer);
      ptable.AddRow(std::move(row));
      ++row_index;
    }
    ptable.Print(std::cout);
    std::printf(
        "\nreports are bit-identical to the 1-thread run; speedup is the "
        "measured ratio to it.\n");
  }
  return 0;
}
