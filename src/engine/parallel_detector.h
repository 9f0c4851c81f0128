// The detector: the one driver users push messages into. It cuts the stream
// into quanta and hands each to the single-writer EventDetector core
// (detect/detector.h), which runs every stage inline on the calling
// thread:
//
//   1. aggregate   — the AKG builder reduces the quantum to its distinct
//                    (keyword, user) pairs in canonical order
//                    (akg::AggregateQuantum);
//   2. graph + SCP — the AKG builder refreshes Min-Hash signatures and
//                    computes edge correlations, then the ScpMaintainer
//                    applies the structural delta;
//   3. snapshot    — per-cluster report cores in canonical (cluster id,
//                    then rank) order.
//
// Each quantum costs a few hundred microseconds, split into batches of
// microsecond jobs, so the core has no worker pool: fork-join would
// outweigh the work. The emitted QuantumReport sequence is a pure function
// of the message stream (tests/golden_test.cc pins it). Parallelism lives
// in the separate ingest stage (ingest/pipeline.h: tokenizer workers).
//
// Saving and restoring an engine goes through durability/backend.h; the
// engine itself only exposes its state encoding (SaveState/RestoreState).

#ifndef SCPRT_ENGINE_PARALLEL_DETECTOR_H_
#define SCPRT_ENGINE_PARALLEL_DETECTOR_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/binary_io.h"
#include "detect/config.h"
#include "detect/detector.h"
#include "stream/message.h"
#include "stream/quantizer.h"
#include "text/keyword_dictionary.h"

namespace scprt::engine {

/// Engine tuning on top of the detector configuration.
struct ParallelDetectorConfig {
  detect::DetectorConfig detector;
  /// Must be 1: the engine runs every stage inline on the calling thread.
  /// The field remains only because the repository benchmark
  /// (perfbench/src/harness.cc) assigns it; drop it together with that
  /// assignment.
  std::size_t threads = 1;
};

/// The streaming detector: Push messages (or whole quanta), get a
/// QuantumReport each time a quantum closes. Not thread-safe: one driver
/// thread feeds it. ("Parallel" is a leftover of the retired worker pool;
/// the repository benchmark spells the name, so it stays until that
/// changes.)
class ParallelDetector {
 public:
  ParallelDetector(const ParallelDetectorConfig& config,
                   const text::KeywordDictionary* dictionary);

  /// Streams one message; returns a report when it completed a quantum.
  std::optional<detect::QuantumReport> Push(const stream::Message& message);

  /// Processes one pre-built quantum; the clock moves past it. The first
  /// quantum may start anywhere (the clock re-bases to it); every later
  /// one must carry the clock's next index, or the call aborts before any
  /// state changes. So does a quantum at the top index (INT64_MAX), which
  /// would leave the clock no successor.
  detect::QuantumReport ProcessQuantum(const stream::Quantum& quantum);

  /// Runs a whole trace; returns every quantum report.
  std::vector<detect::QuantumReport> Run(
      const std::vector<stream::Message>& trace);

  /// The wrapped single-writer core (state inspection).
  const detect::EventDetector& core() const { return detector_; }

  /// Forwards to the core detector's report-time cluster sink (fires on
  /// the engine's driver thread, inside ProcessQuantum). nullptr detaches.
  void set_cluster_sink(detect::ClusterSink* sink) {
    detector_.set_cluster_sink(sink);
  }

  /// The engine's accumulation point: its clock and the pending partial
  /// quantum.
  const stream::Quantizer& quantizer() const { return quantizer_; }

  /// Clock of the quantizer: the index the next quantum will carry.
  QuantumIndex next_quantum_index() const { return quantizer_.next_index(); }

  /// Moves the pending partial quantum out of the quantizer (ingest resume
  /// hands accumulation onward to its assembler; WAL log replay supersedes
  /// it).
  std::vector<stream::Message> TakePendingMessages() {
    return quantizer_.TakePending();
  }

  /// Writes the core's state encoding (detect::EventDetector::SaveState)
  /// with quantizer()'s clock and pending messages.
  void SaveState(BinaryWriter& out) const;

  /// Restores SaveState's encoding into this freshly constructed engine;
  /// the clock and pending messages land in quantizer(). Returns false on
  /// malformed input (the engine must then be discarded).
  bool RestoreState(BinaryReader& in);

 private:
  /// Runs the core on a quantum the clock has already moved past.
  detect::QuantumReport Detect(const stream::Quantum& quantum);

  detect::EventDetector detector_;
  stream::Quantizer quantizer_;
};

}  // namespace scprt::engine

#endif  // SCPRT_ENGINE_PARALLEL_DETECTOR_H_
