// The streaming ingestion pipeline: raw records in, detector-ready
// messages out, tokenization parallel, results deterministic.
//
//   MessageSource ──> [driver: admission + dispatch] ──> per-worker SPSC
//   in-queues ──> tokenizer workers (tokenize, stop-word filter, synonym
//   fold, dictionary lookup) ──> per-worker SPSC out-queues ──> [driver:
//   in-order collect + intern + dedup] ──> MessageSink (QuantumAssembler
//   -> ParallelDetector)
//
// One driver thread (the caller of Run) owns both ends: it dispatches
// record i to worker i mod W and collects finished records in the same
// round-robin order, so messages reach the sink in exact stream order no
// matter how workers interleave. Workers only *look up* keywords; records
// whose words are not yet interned carry the spelling through, and the
// driver interns them at collect time — in stream order. Keyword ids are
// therefore a pure function of the admitted stream, and the emitted
// messages (hence every downstream report) are bit-identical at any worker
// count (tests/ingest_pipeline_test.cc proves it, and proves equality with
// feeding the detector the pre-tokenized trace directly).
//
// All queues are bounded, which is the backpressure: when tokenizers fall
// behind, the driver's dispatch stalls and the AdmissionController decides
// whether the arriving record waits (kBlock), is dropped (kDropTail), or
// is dropped unless its author survives seeded per-user sampling
// (kFairSample) — see ingest/admission.h.

#ifndef SCPRT_INGEST_PIPELINE_H_
#define SCPRT_INGEST_PIPELINE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/types.h"
#include "ingest/admission.h"
#include "ingest/assembler.h"
#include "ingest/metrics.h"
#include "ingest/source.h"
#include "text/concurrent_dictionary.h"
#include "text/synonyms.h"
#include "text/tokenizer.h"

namespace scprt::ingest {

/// Frontend tuning.
struct IngestConfig {
  /// Tokenizer workers. 0 derives hardware concurrency; 1 still overlaps
  /// tokenization with source reads and detection.
  std::size_t workers = 0;
  /// Per-worker staging-queue capacity (records), a power of two >= 2.
  /// Total staging = 2 * workers * queue_capacity (in + out sides).
  std::size_t queue_capacity = 1024;
  AdmissionConfig admission;
  text::TokenizerOptions tokenizer;
  /// Drop stop words after tokenization (paper Section 1.1).
  bool drop_stopwords = true;
  /// Optional synonym folding before interning (borrowed; may be null).
  const text::SynonymTable* synonyms = nullptr;
};

/// One token after the worker stage: a resolved id, or — when the word has
/// not been interned yet — its spelling, for the driver to intern in
/// stream order.
struct ResolvedToken {
  KeywordId id = kInvalidKeyword;
  std::string spelling;
};

/// The worker-stage transform, exposed for unit tests and frontend-only
/// micro-benchmarks: tokenize, filter stop words, fold synonyms, look up.
/// `raw_tokens` (optional) receives the pre-filter token count.
std::vector<ResolvedToken> TokenizeAndResolve(
    std::string_view message_text, const IngestConfig& config,
    const text::ConcurrentKeywordDictionary& dictionary,
    std::uint64_t* raw_tokens = nullptr);

/// Per-Run tuning (checkpoint resume continues a prior run's stream).
struct RunOptions {
  /// Sequence number of the first collected message — a resumed run
  /// continues the pre-crash numbering so replayed quanta are bit-identical
  /// to the uninterrupted stream's.
  std::uint64_t first_seq = 0;
  /// Starts the Run with every admission decision forced to kBlock
  /// semantics (cleared mid-run via set_suppress_shedding). Resume
  /// replays the tail between the checkpoint's source cursor and the
  /// crash point; re-deciding a shed-capable policy there could drop
  /// records the pre-crash run had admitted, so the resume runbook
  /// (docs/operations.md) replays losslessly and the durable session
  /// restores the configured policy at its first post-resume checkpoint.
  bool suppress_shedding = false;
};

/// How far one Run had consumed the stream when it read a record: the
/// source cursor just past the record, and the Run's records read and
/// shed up to and including it. Records the driver reads ahead of it are
/// not counted, so a checkpoint taken at that record persists counts
/// that match its cursor.
struct StreamMark {
  SourcePosition position;
  std::uint64_t records_read = 0;
  std::uint64_t shed = 0;
};

/// The pipeline. Construct once, Run() to exhaustion (Run blocks and may
/// be called again with a new source; the dictionary keeps growing).
class IngestPipeline {
 public:
  /// `dictionary` is borrowed and must outlive the pipeline. Seed it (see
  /// ConcurrentKeywordDictionary::SeedFrom) to replay a known vocabulary,
  /// or start empty for a live stream.
  IngestPipeline(const IngestConfig& config,
                 text::ConcurrentKeywordDictionary* dictionary);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Pumps `source` to exhaustion into `sink`, then calls sink.Finish().
  /// Blocks; the calling thread is the driver. Returns the final metrics
  /// snapshot of this run.
  IngestSnapshot Run(MessageSource& source, MessageSink& sink,
                     const RunOptions& options = {});

  /// Live counters (poll from any thread while Run is in flight).
  const IngestMetrics& metrics() const { return metrics_; }
  /// Writable counters (the durable session stamps checkpoint/recovery
  /// costs into the same snapshot the frontend counters land in).
  IngestMetrics& metrics() { return metrics_; }

  /// Stream mark of the last record delivered to the sink. Valid on the
  /// driver thread during Run (in particular inside sink callbacks — the
  /// checkpoint hook reads it there: at a quantum boundary it is exactly
  /// the mark of the record that closed the quantum, because dispatch,
  /// collect and sink delivery all happen on the driver thread).
  const StreamMark& last_collected() const { return last_collected_; }

  /// Flips the shedding override mid-run. Driver-thread only — callable
  /// from inside sink callbacks (the durable session ends its resume
  /// suppression window here once the first post-resume checkpoint lands).
  void set_suppress_shedding(bool suppress) {
    suppress_shedding_ = suppress;
  }

  /// Worker threads actually running.
  std::size_t workers() const;

  const IngestConfig& config() const { return config_; }

 private:
  struct Worker;

  void WorkerLoop(std::stop_token stop, Worker& worker);

  IngestConfig config_;
  text::ConcurrentKeywordDictionary* dictionary_;
  AdmissionController admission_;
  IngestMetrics metrics_;
  StreamMark last_collected_;
  bool suppress_shedding_ = false;  // driver thread only
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace scprt::ingest

#endif  // SCPRT_INGEST_PIPELINE_H_
