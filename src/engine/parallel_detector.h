// The detector: the one driver users push messages into. It cuts the stream
// into quanta and runs each through the single-writer EventDetector core,
// with the core's pure per-item hot loops spread over a worker pool.
//
// Each quantum flows through three stages:
//
//   1. aggregate   (serial)    — akg::AggregateQuantum reduces the quantum
//                                to (keyword, distinct users) in canonical
//                                order;
//   2. graph + SCP (serial core, parallel hot loops) — the AKG builder
//                                batches Min-Hash signature refreshes and
//                                edge-correlation computations through the
//                                pool, then the single-writer ScpMaintainer
//                                applies the structural delta;
//   3. snapshot    (parallel)  — per-cluster report cores compute on the
//                                pool and merge in canonical (cluster id,
//                                then rank) order.
//
// Every parallel loop writes only per-index slots and every serial stage
// consumes canonical orderings, so the emitted QuantumReport sequence is
// bit-identical at any thread count; threads = 1 runs every stage inline
// on the caller (tests/parallel_detector_test.cc compares 2 and 8 threads
// against 1; tests/golden_test.cc pins 1 and 4).
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
#include "engine/shard_pool.h"
#include "stream/message.h"
#include "stream/quantizer.h"
#include "text/keyword_dictionary.h"

namespace scprt::engine {

/// Engine tuning on top of the detector configuration.
struct ParallelDetectorConfig {
  detect::DetectorConfig detector;
  /// Pool worker threads. 0 derives the hardware concurrency; 1 runs
  /// everything inline on the calling thread.
  std::size_t threads = 0;
};

/// The streaming detector: Push messages (or whole quanta), get a
/// QuantumReport each time a quantum closes. Not thread-safe itself — one
/// driver thread feeds it, the pool parallelizes underneath.
class ParallelDetector {
 public:
  ParallelDetector(const ParallelDetectorConfig& config,
                   const text::KeywordDictionary* dictionary);

  /// Streams one message; returns a report when it completed a quantum.
  std::optional<detect::QuantumReport> Push(const stream::Message& message);

  /// Processes one pre-built quantum (clock re-bases past it).
  detect::QuantumReport ProcessQuantum(const stream::Quantum& quantum);

  /// Runs a whole trace; returns every quantum report.
  std::vector<detect::QuantumReport> Run(
      const std::vector<stream::Message>& trace);

  /// Degree of parallelism actually in use.
  std::size_t threads() const { return pool_.threads(); }

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
  /// hands accumulation onward to its assembler; delta replay supersedes
  /// it).
  std::vector<stream::Message> TakePendingMessages() {
    return quantizer_.TakePending();
  }

  /// Writes the core's state encoding (detect::EventDetector::SaveState)
  /// with `clock`'s clock and pending messages — this engine's quantizer(),
  /// or an outer accumulator's such as the ingest assembler's — after
  /// quiescing the pool: every in-flight pool task completes before a
  /// state byte is read.
  void SaveState(BinaryWriter& out, const stream::Quantizer& clock);

  /// Restores SaveState's encoding into this freshly constructed engine;
  /// the clock and pending messages land in quantizer(). Returns false on
  /// malformed input (the engine must then be discarded).
  bool RestoreState(BinaryReader& in);

 private:
  ShardPool pool_;  // outlives detector_'s parallel hook
  detect::EventDetector detector_;
  stream::Quantizer quantizer_;
};

}  // namespace scprt::engine

#endif  // SCPRT_ENGINE_PARALLEL_DETECTOR_H_
