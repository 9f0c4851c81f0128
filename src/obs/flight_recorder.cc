#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>

#include "common/json.h"

namespace scprt::obs {
namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};

// Capacity of each half of the double buffer.
constexpr std::size_t kBufferBytes = 256 * 1024;
// Sampler ring entries kept in the bundle.
constexpr std::size_t kSampleTail = 8;
// Spans kept in the bundle, and at most this many per thread.
constexpr std::size_t kSpanTail = 256;
constexpr std::size_t kSpanTailPerThread = 64;

struct FatalSignal {
  int signo;
  const char* name;
};
constexpr FatalSignal kFatalSignals[] = {
    {SIGSEGV, "SIGSEGV"}, {SIGABRT, "SIGABRT"}, {SIGBUS, "SIGBUS"},
    {SIGFPE, "SIGFPE"},   {SIGILL, "SIGILL"},
};

const char* SignalName(int signo) {
  for (const FatalSignal& s : kFatalSignals) {
    if (s.signo == signo) return s.name;
  }
  return "UNKNOWN";
}

// Async-signal-safe full write.
void SafeWrite(int fd, const char* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

void SafeWriteCStr(int fd, const char* s) { SafeWrite(fd, s, std::strlen(s)); }

// Async-signal-safe unsigned decimal render; returns digits written.
std::size_t FormatU64(char* buf, std::uint64_t v) {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void SignalTrampoline(int signo) {
  FlightRecorder* recorder = g_recorder.load(std::memory_order_relaxed);
  if (recorder != nullptr) recorder->HandleFatalSignal(signo);
  // Hand the signal back to the default disposition so the exit status
  // (and any core dump) is exactly what it would have been without us.
  std::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

FlightRecorder& FlightRecorder::Install(const Options& options) {
  static std::mutex install_mu;
  std::lock_guard<std::mutex> lock(install_mu);
  FlightRecorder* existing = g_recorder.load(std::memory_order_relaxed);
  if (existing != nullptr) return *existing;
  // Leaked on purpose: the signal handler may fire during teardown.
  FlightRecorder* recorder = new FlightRecorder(options);
  g_recorder.store(recorder, std::memory_order_release);
  struct sigaction action{};
  action.sa_handler = &SignalTrampoline;
  sigemptyset(&action.sa_mask);
  for (const FatalSignal& s : kFatalSignals) {
    ::sigaction(s.signo, &action, nullptr);
  }
  return *recorder;
}

FlightRecorder* FlightRecorder::instance() {
  return g_recorder.load(std::memory_order_acquire);
}

void FlightRecorder::NoteFatalError(const char* detail) {
  FlightRecorder* recorder = instance();
  if (recorder == nullptr) return;
  recorder->Refresh();
  recorder->crashing_.store(true, std::memory_order_relaxed);
  std::string fragment = "\"reason\":\"fatal_error\",\"detail\":";
  AppendJsonString(detail != nullptr ? detail : "", fragment);
  fragment += ',';
  recorder->WriteBundle(fragment.c_str());
}

FlightRecorder::FlightRecorder(const Options& options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : &Registry::Default()),
      tracer_(options.tracer != nullptr ? options.tracer
                                        : &Tracer::Default()) {
  buffers_[0] = std::make_unique<char[]>(kBufferBytes);
  buffers_[1] = std::make_unique<char[]>(kBufferBytes);
  // The handler can only open/write/close; make sure the directory
  // exists now, while mkdir is still allowed.
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  path_ = options_.dir + "/postmortem-" +
          std::to_string(static_cast<long>(::getpid())) + ".json";
  header_ = "{\"schema\":\"scprt-postmortem-v1\",\"pid\":" +
            std::to_string(static_cast<long>(::getpid())) + ",";
}

std::size_t FlightRecorder::published_bytes() const {
  return static_cast<std::size_t>(
      published_.load(std::memory_order_acquire) & 0xffffffffu);
}

std::string FlightRecorder::RenderBody() const {
  const RegistrySnapshot snap = registry_->SnapshotAll();
  std::string body;
  body.reserve(16384);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"captured_unix\":%.3f,\"uptime_seconds\":%.3f,",
                ProcessStartUnixSeconds() + ProcessUptimeSeconds(),
                ProcessUptimeSeconds());
  body += buf;

  body += "\"watchdog\":";
  body += options_.watchdog != nullptr ? options_.watchdog->StatusJson()
                                       : "null";
  body += ',';

  // The durability/store progress markers an operator checks first:
  // how far the dead process had durably gotten.
  std::snprintf(
      buf, sizeof(buf),
      "\"watermarks\":{\"ingest_commits\":%llu,"
      "\"ingest_commit_bytes\":%llu,",
      static_cast<unsigned long long>(snap.CounterValue("ingest.commits")),
      static_cast<unsigned long long>(
          snap.CounterValue("ingest.commit_bytes")));
  body += buf;
  std::snprintf(
      buf, sizeof(buf),
      "\"ingest_checkpoints\":%llu,\"ingest_checkpoint_failures\":%llu,",
      static_cast<unsigned long long>(
          snap.CounterValue("ingest.checkpoints")),
      static_cast<unsigned long long>(
          snap.CounterValue("ingest.checkpoint_failures")));
  body += buf;
  std::snprintf(
      buf, sizeof(buf),
      "\"wal_sync_failures\":%llu,\"store_events_indexed\":%llu,"
      "\"store_page_write\":%llu},",
      static_cast<unsigned long long>(
          snap.CounterValue("wal.sync_failures")),
      static_cast<unsigned long long>(
          snap.CounterValue("store.events_indexed")),
      static_cast<unsigned long long>(
          snap.CounterValue("store.page_write")));
  body += buf;

  body += "\"metrics\":";
  body += snap.FormatJson();
  body += ',';

  body += "\"samples\":[";
  if (options_.sampler != nullptr) {
    bool first = true;
    for (const Sampler::Sample& s : options_.sampler->Tail(kSampleTail)) {
      if (!first) body += ',';
      first = false;
      std::snprintf(buf, sizeof(buf), "{\"unix\":%.3f,\"metrics\":",
                    s.unix_seconds);
      body += buf;
      body += s.snapshot.FormatJson();
      body += '}';
    }
  }
  body += "],";

  body += "\"spans\":[";
  {
    const std::vector<SpanEvent> spans =
        tracer_->SnapshotTail(kSpanTailPerThread, kSpanTail);
    bool first = true;
    for (const SpanEvent& e : spans) {
      if (!first) body += ',';
      first = false;
      body += "{\"name\":";
      AppendJsonString(e.name != nullptr ? e.name : "span", body);
      std::snprintf(buf, sizeof(buf),
                    ",\"tid\":%u,\"start_ns\":%lld,\"dur_ns\":%lld}",
                    e.tid, static_cast<long long>(e.start_ns),
                    static_cast<long long>(e.dur_ns));
      body += buf;
    }
  }
  body += "]}";
  return body;
}

void FlightRecorder::Refresh() {
  if (crashing_.load(std::memory_order_relaxed)) return;
  std::string body = RenderBody();
  if (body.size() >= kBufferBytes) {
    // Too big to pre-stage whole: a truncated bundle is worse than a
    // smaller complete one.
    body = "\"truncated\":true,\"body_bytes\":" +
           std::to_string(body.size()) + "}";
  }
  const std::uint64_t current = published_.load(std::memory_order_relaxed);
  const std::uint64_t target = 1 - (current >> 32);
  std::memcpy(buffers_[target].get(), body.data(), body.size());
  published_.store((target << 32) | body.size(),
                   std::memory_order_release);
}

void FlightRecorder::WriteBundle(const char* reason_json_fragment) {
  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  SafeWrite(fd, header_.data(), header_.size());
  SafeWriteCStr(fd, reason_json_fragment);
  const std::uint64_t published =
      published_.load(std::memory_order_acquire);
  const std::size_t len = published & 0xffffffffu;
  if (len > 0) {
    SafeWrite(fd, buffers_[published >> 32].get(), len);
  } else {
    SafeWriteCStr(fd, "\"captured_unix\":0}");
  }
  ::close(fd);
}

void FlightRecorder::HandleFatalSignal(int signo) {
  // First move: freeze the published buffer. After this store at most
  // one already-running Refresh can publish, and it publishes into the
  // buffer we are *not* about to read.
  crashing_.store(true, std::memory_order_relaxed);
  char fragment[96];
  std::size_t n = 0;
  auto append = [&](const char* s) {
    while (*s != '\0' && n < sizeof(fragment) - 1) fragment[n++] = *s++;
  };
  append("\"reason\":\"signal\",\"signal\":\"");
  append(SignalName(signo));
  append("\",\"signo\":");
  n += FormatU64(fragment + n, static_cast<std::uint64_t>(signo));
  append(",");
  fragment[n] = '\0';
  WriteBundle(fragment);
}

}  // namespace scprt::obs
