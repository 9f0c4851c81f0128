// The benchmark's workloads. Each runs its set-up, a timed pass with
// observability off, a traced pass (or reference replay) for the output
// checks and per-layer metrics, and a restart phase; see README.md.

#ifndef SCPRT_PERFBENCH_WORKLOADS_H_
#define SCPRT_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace scprt::perfbench {

/// Closed-loop replay of a pre-tokenized trace through
/// ingest::QuantumAssembler → engine::ParallelDetector (threads = 1).
Outcome RunReplay(const Options& options, const Shape& shape);

/// Open-loop paced JSONL through ingest::DurableIngest (WAL, interval
/// fsync) with a store::EventIndexer sink and a concurrent query reader.
Outcome RunLive(const Options& options, const Shape& shape);

}  // namespace scprt::perfbench

#endif  // SCPRT_PERFBENCH_WORKLOADS_H_
