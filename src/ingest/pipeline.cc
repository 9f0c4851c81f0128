#include "ingest/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "engine/spsc_queue.h"
#include "obs/registry.h"
#include "text/stopwords.h"

namespace scprt::ingest {

namespace {

// A record in flight from driver to worker. Its stream mark rides along
// so the driver knows, at collect time, how far the source had been
// consumed when this record was read (checkpoint fence bookkeeping).
// Both queues are read in place (SpscQueue::Front), so the strings and
// vectors in a slot are freed by the thread that filled it, when it next
// assigns that slot, never by the other thread.
struct WorkItem {
  RawRecord record;
  StreamMark mark;
};

// A record on its way back: resolved tokens plus passthrough fields.
struct DoneItem {
  UserId user = 0;
  std::int32_t event_id = stream::kBackground;
  std::vector<ResolvedToken> tokens;
  StreamMark mark;
};

}  // namespace

std::vector<ResolvedToken> TokenizeAndResolve(
    std::string_view message_text, const IngestConfig& config,
    const text::ConcurrentKeywordDictionary& dictionary,
    std::uint64_t* raw_tokens) {
  std::vector<std::string> words =
      text::Tokenize(message_text, config.tokenizer);
  if (raw_tokens) *raw_tokens = words.size();
  std::vector<ResolvedToken> tokens;
  tokens.reserve(words.size());
  for (std::string& word : words) {
    if (config.drop_stopwords && text::IsStopWord(word)) continue;
    if (config.synonyms) {
      // When mapped, Canonical returns a view into the table's own storage
      // (never into `word`), so assigning through it is alias-free.
      const std::string_view canonical = config.synonyms->Canonical(word);
      if (canonical != word) word.assign(canonical);
    }
    ResolvedToken token;
    token.id = dictionary.TryLookup(word);
    if (token.id == kInvalidKeyword) token.spelling = std::move(word);
    tokens.push_back(std::move(token));
  }
  return tokens;
}

struct IngestPipeline::Worker {
  explicit Worker(std::size_t capacity) : in(capacity), out(capacity) {}

  engine::SpscQueue<WorkItem> in;
  engine::SpscQueue<DoneItem> out;
  // Bumped by the driver after every push (and at stop) to wake the worker.
  // 32 bits, so wait/notify use the futex word directly: notify_one with
  // no waiter is then a load, not a read-modify-write of a shared slot.
  alignas(64) std::atomic<std::uint32_t> signal{0};
  std::jthread thread;  // last: joins before the queues are destroyed
};

IngestPipeline::IngestPipeline(const IngestConfig& config,
                               text::ConcurrentKeywordDictionary* dictionary)
    : config_(config), dictionary_(dictionary), admission_(config.admission) {
  SCPRT_CHECK(dictionary != nullptr);
  SCPRT_CHECK(config.queue_capacity >= 2 &&
              (config.queue_capacity & (config.queue_capacity - 1)) == 0);
  std::size_t workers = config.workers;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(config.queue_capacity));
  }
  for (auto& worker : workers_) {
    Worker* raw = worker.get();
    raw->thread = std::jthread(
        [this, raw](std::stop_token stop) { WorkerLoop(stop, *raw); });
  }
}

IngestPipeline::~IngestPipeline() {
  for (auto& worker : workers_) {
    worker->thread.request_stop();
    worker->signal.fetch_add(1, std::memory_order_release);
    worker->signal.notify_one();
  }
  // std::jthread joins in its destructor.
}

std::size_t IngestPipeline::workers() const { return workers_.size(); }

IngestSnapshot IngestPipeline::Run(MessageSource& source, MessageSink& sink,
                                   const RunOptions& options) {
  metrics_.Reset();  // each Run's snapshot describes that run alone
  sink.BindMetrics(&metrics_);
  const std::size_t num_workers = workers_.size();

  std::uint64_t dispatch_seq = 0;  // records admitted into in-queues
  std::uint64_t collect_seq = 0;   // records delivered to the sink
  bool source_done = false;
  bool have_pending = false;
  RawRecord pending;
  // Advances with every record read and shed. While a record is pending,
  // nothing else moves it, so at admission it is that record's mark.
  StreamMark reading{source.Position()};
  last_collected_ = reading;
  suppress_shedding_ = options.suppress_shedding;

  // Stage histograms (process-wide; one clock pair per batch / stall, so
  // the per-record cost stays under the obs overhead gate).
  obs::Histogram* const collect_hist =
      obs::Registry::Default().GetHistogram("ingest.collect_batch_ns");
  obs::Histogram* const stall_hist =
      obs::Registry::Default().GetHistogram("ingest.dispatch_stall_ns");

  // Collects every ready record in round-robin order; returns the number
  // delivered. Interning happens here — single thread, stream order.
  const auto collect_ready = [&]() -> std::size_t {
    const std::int64_t collect_start =
        obs::Enabled() ? obs::MonotonicNanos() : 0;
    std::size_t delivered = 0;
    while (collect_seq < dispatch_seq) {
      engine::SpscQueue<DoneItem>& out =
          workers_[collect_seq % num_workers]->out;
      const DoneItem* const ready = out.Front();
      if (ready == nullptr) break;
      const DoneItem& done = *ready;
      stream::Message message;
      message.user = done.user;
      message.seq = options.first_seq + collect_seq;
      message.event_id = done.event_id;
      message.keywords.reserve(done.tokens.size());
      for (const ResolvedToken& token : done.tokens) {
        const KeywordId id = token.id != kInvalidKeyword
                                 ? token.id
                                 : dictionary_->Intern(token.spelling);
        // De-duplicate, preserving first occurrence (messages carry at
        // most a dozen keywords; linear scan beats a hash set here).
        if (std::find(message.keywords.begin(), message.keywords.end(),
                      id) == message.keywords.end()) {
          message.keywords.push_back(id);
        }
      }
      metrics_.AddKeywords(message.keywords.size());
      // Publish this record's mark before delivery: a checkpoint hook
      // inside sink.Push sees exactly the mark of the record that closed
      // the quantum.
      last_collected_ = done.mark;
      out.Pop();
      sink.Push(std::move(message));
      metrics_.AddMessagesEmitted(1);
      ++collect_seq;
      ++delivered;
    }
    if (delivered > 0 && collect_start != 0) {
      collect_hist->Record(static_cast<std::uint64_t>(
          obs::MonotonicNanos() - collect_start));
    }
    return delivered;
  };

  // Start of the current admission-retry streak (0 = not stalled). Clock
  // reads happen only while actually backpressured.
  std::int64_t stall_start_ns = 0;

  while (!source_done || collect_seq < dispatch_seq || have_pending) {
    // --- Read ---
    if (!have_pending && !source_done) {
      const std::uint64_t malformed_before = source.malformed_count();
      if (source.Next(pending)) {
        have_pending = true;
        reading.position = source.Position();
        ++reading.records_read;
        metrics_.AddRecordsRead(1);
      } else {
        source_done = true;
      }
      const std::uint64_t malformed_now = source.malformed_count();
      if (malformed_now > malformed_before) {
        metrics_.AddMalformed(malformed_now - malformed_before);
      }
    }

    // --- Admit + dispatch (round-robin keeps stream order recoverable) ---
    bool progressed = false;
    if (have_pending) {
      Worker& target = *workers_[dispatch_seq % num_workers];
      const bool queue_full = target.in.full();
      const Admission verdict =
          suppress_shedding_
              ? (queue_full ? Admission::kRetry : Admission::kAdmit)
              : admission_.Decide(pending.user, queue_full);
      switch (verdict) {
        case Admission::kAdmit: {
          target.in.TryPush(
              WorkItem{std::move(pending), reading});  // fits
          target.signal.fetch_add(1, std::memory_order_release);
          target.signal.notify_one();
          metrics_.AddAdmitted(1);
          metrics_.ObserveQueueDepth(target.in.size());
          have_pending = false;
          ++dispatch_seq;
          progressed = true;
          break;
        }
        case Admission::kShed:
          ++reading.shed;
          metrics_.AddShed(1);
          have_pending = false;
          progressed = true;
          break;
        case Admission::kRetry:
          if (stall_start_ns == 0 && obs::Enabled()) {
            stall_start_ns = obs::MonotonicNanos();
          }
          break;  // back off into collection; retried next iteration
      }
      if (progressed && stall_start_ns != 0) {
        stall_hist->Record(static_cast<std::uint64_t>(
            obs::MonotonicNanos() - stall_start_ns));
        stall_start_ns = 0;
      }
    }

    // --- Collect in order ---
    if (collect_ready() > 0) progressed = true;

    if (!progressed && (have_pending || collect_seq < dispatch_seq)) {
      // Stalled on a full in-queue or an empty out-queue: the bottleneck
      // is a worker (or the sink's last quantum); yield the core to it.
      std::this_thread::yield();
    }
  }

  sink.Finish();
  return metrics_.Snapshot();
}

void IngestPipeline::WorkerLoop(std::stop_token stop, Worker& worker) {
  // Token counts and tokenize time go to the shared counters in batches:
  // a per-record atomic add from every worker keeps their cache lines
  // moving between cores.
  constexpr std::uint64_t kMetricsBatch = 64;
  constexpr int kIdleSpins = 64;
  std::uint64_t batched = 0;
  std::uint64_t tokens = 0;
  std::uint64_t tokenize_ns = 0;
  std::uint32_t seen = 0;
  const auto flush_metrics = [&] {
    metrics_.AddTokens(tokens);
    metrics_.AddTokenizeNs(tokenize_ns);
    batched = tokens = tokenize_ns = 0;
  };
  while (true) {
    while (const WorkItem* const next = worker.in.Front()) {
      const WorkItem& item = *next;
      DoneItem done;
      done.user = item.record.user;
      done.event_id = item.record.event_id;
      done.mark = item.mark;
      const std::int64_t t0 = obs::MonotonicNanos();
      std::uint64_t raw_tokens = 0;
      done.tokens = TokenizeAndResolve(item.record.text, config_,
                                       *dictionary_, &raw_tokens);
      tokens += raw_tokens;
      tokenize_ns += static_cast<std::uint64_t>(obs::MonotonicNanos() - t0);
      worker.in.Pop();
      // Flush before handing the record back once the queue has run dry:
      // a driver that has collected every record then sees every count.
      if (++batched == kMetricsBatch || worker.in.Front() == nullptr) {
        flush_metrics();
      }
      // The out-queue is the same capacity as the in-queue, but the driver
      // may lag; as this worker is the only producer, a non-full check
      // guarantees the subsequent push succeeds (the driver only ever
      // shrinks the queue).
      while (worker.out.full()) {
        if (stop.stop_requested()) return;  // driver abandoned the run
        std::this_thread::yield();
      }
      worker.out.TryPush(std::move(done));
    }
    if (stop.stop_requested()) return;
    // Poll a little before sleeping: under load the next record arrives
    // within microseconds, and catching it here spares the driver a futex
    // wake per record. Yielding keeps an oversubscribed host fair.
    bool arrived = false;
    for (int spin = 0; spin < kIdleSpins && !arrived; ++spin) {
      std::this_thread::yield();
      arrived = worker.in.Front() != nullptr;
    }
    if (arrived) continue;
    const std::uint32_t signal = worker.signal.load(std::memory_order_acquire);
    if (signal != seen) {
      seen = signal;  // new pushes raced with the drain loop — re-check
      continue;
    }
    worker.signal.wait(signal, std::memory_order_acquire);
  }
}

}  // namespace scprt::ingest
