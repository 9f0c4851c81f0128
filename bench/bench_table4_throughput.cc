// Table 4 — Message processing rate (messages/second) for quantum sizes
// delta in {120, 160, 200} on the TW and ES traces.
//
// Paper shape: TW processes several times faster than ES (higher event
// intensity means more AKG work), and throughput decreases as delta grows.
// Absolute numbers depend on this machine; the paper reports 5185/4420/4160
// (TW) and 1410/1400/1160 (ES) on 2012 hardware.
//
// The table runs the detector (engine/parallel_detector.h), which processes
// every quantum inline on the calling thread.
//
//   $ ./bench_table4_throughput

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "eval/table.h"

int main(int argc, char** argv) {
  using namespace scprt;
  if (argc > 1) {
    std::fprintf(stderr,
                 "unexpected argument '%s'\n"
                 "usage: bench_table4_throughput\n",
                 argv[1]);
    return 2;
  }
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
  for (const auto& [name, trace] : traces) {
    std::vector<std::string> row = {name};
    for (std::size_t delta : deltas) {
      detect::DetectorConfig config = bench::NominalConfig();
      config.quantum_size = delta;
      const bench::RunResult result = bench::RunDetector(*trace, config);
      row.push_back(eval::AsciiTable::Int(
          static_cast<std::uint64_t>(result.throughput.MessagesPerSecond())));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf(
      "\nexpected shape (paper Table 4): TW >> ES; rate declines with "
      "delta.\n");
  return 0;
}
