#include "ingest/metrics.h"

#include <cstdio>

namespace scprt::ingest {

IngestMetrics::IngestMetrics(obs::Registry* registry) {
  obs::Registry& r =
      registry != nullptr ? *registry : obs::Registry::Default();
  records_read_ = r.GetCounter("ingest.records_read");
  malformed_ = r.GetCounter("ingest.malformed");
  admitted_ = r.GetCounter("ingest.admitted");
  shed_ = r.GetCounter("ingest.shed");
  messages_emitted_ = r.GetCounter("ingest.messages_emitted");
  quanta_emitted_ = r.GetCounter("ingest.quanta_emitted");
  tokens_ = r.GetCounter("ingest.tokens");
  keywords_ = r.GetCounter("ingest.keywords");
  tokenize_ns_ = r.GetCounter("ingest.tokenize_ns");
  peak_queue_depth_ = r.GetCounter("ingest.peak_queue_depth");
  queue_depth_ = r.GetGauge("ingest.queue_depth");
  checkpoints_ = r.GetCounter("ingest.checkpoints");
  checkpoint_bytes_ = r.GetCounter("ingest.checkpoint_bytes");
  checkpoint_ns_ = r.GetCounter("ingest.checkpoint_ns");
  commits_ = r.GetCounter("ingest.commits");
  commit_bytes_ = r.GetCounter("ingest.commit_bytes");
  commit_ns_ = r.GetCounter("ingest.commit_ns");
  checkpoint_failures_ = r.GetCounter("ingest.checkpoint_failures");
  sync_failures_ = r.GetCounter("ingest.sync_failures");
  // A new instance has no resume behind it until SetRecoveryNs says so.
  recovery_seconds_ = r.GetGauge("ingest.recovery_seconds");
  recovery_seconds_->Set(0.0);
}

void IngestMetrics::Reset() {
  records_read_->Store(0);
  malformed_->Store(0);
  admitted_->Store(0);
  shed_->Store(0);
  messages_emitted_->Store(0);
  quanta_emitted_->Store(0);
  tokens_->Store(0);
  keywords_->Store(0);
  tokenize_ns_->Store(0);
  peak_queue_depth_->Store(0);
  queue_depth_->Set(0.0);
  checkpoints_->Store(0);
  checkpoint_bytes_->Store(0);
  checkpoint_ns_->Store(0);
  commits_->Store(0);
  commit_bytes_->Store(0);
  commit_ns_->Store(0);
  checkpoint_failures_->Store(0);
  sync_failures_->Store(0);
  // recovery_seconds_ deliberately survives: it is set by the resume that
  // led into the Run whose Reset this is.
  start_ns_.store(obs::MonotonicNanos(), std::memory_order_relaxed);
}

IngestSnapshot IngestMetrics::Snapshot() const {
  IngestSnapshot s;
  s.records_read = records_read_->Value();
  s.malformed = malformed_->Value();
  s.admitted = admitted_->Value();
  s.shed = shed_->Value();
  s.messages_emitted = messages_emitted_->Value();
  s.quanta_emitted = quanta_emitted_->Value();
  s.tokens = tokens_->Value();
  s.keywords = keywords_->Value();
  s.tokenize_ns = tokenize_ns_->Value();
  s.peak_queue_depth = peak_queue_depth_->Value();
  s.queue_depth = static_cast<std::uint64_t>(queue_depth_->Value());
  s.checkpoints = checkpoints_->Value();
  s.checkpoint_bytes = checkpoint_bytes_->Value();
  s.checkpoint_ns = checkpoint_ns_->Value();
  s.commits = commits_->Value();
  s.commit_bytes = commit_bytes_->Value();
  s.commit_ns = commit_ns_->Value();
  s.checkpoint_failures = checkpoint_failures_->Value();
  s.sync_failures = sync_failures_->Value();
  s.recovery_seconds = recovery_seconds_->Value();
  const std::int64_t start = start_ns_.load(std::memory_order_relaxed);
  s.elapsed_seconds =
      start > 0 ? static_cast<double>(obs::MonotonicNanos() - start) / 1e9
                : 0.0;
  return s;
}

std::string IngestSnapshot::Format() const {
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf),
      "%llu msgs (%llu quanta) in %.2fs = %.0f msg/s | "
      "read %llu, shed %llu, malformed %llu | "
      "%.2f us/msg tokenize, queue %llu (peak %llu)",
      static_cast<unsigned long long>(messages_emitted),
      static_cast<unsigned long long>(quanta_emitted), elapsed_seconds,
      MessagesPerSecond(), static_cast<unsigned long long>(records_read),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(malformed),
      TokenizeMicrosPerMessage(),
      static_cast<unsigned long long>(queue_depth),
      static_cast<unsigned long long>(peak_queue_depth));
  if (commits > 0 && n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       " | %llu commits, %.0f us/commit",
                       static_cast<unsigned long long>(commits),
                       CommitMicros());
  }
  if (checkpoints > 0 && n > 0 &&
      static_cast<std::size_t>(n) < sizeof(buf)) {
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       " | %llu ckpts, %.1f ms/ckpt",
                       static_cast<unsigned long long>(checkpoints),
                       CheckpointMillis());
  }
  if ((checkpoint_failures > 0 || sync_failures > 0) && n > 0 &&
      static_cast<std::size_t>(n) < sizeof(buf)) {
    std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                  " | FAILURES: %llu commit, %llu sync",
                  static_cast<unsigned long long>(checkpoint_failures),
                  static_cast<unsigned long long>(sync_failures));
  }
  return buf;
}

}  // namespace scprt::ingest
