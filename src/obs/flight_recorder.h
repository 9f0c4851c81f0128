// Crash flight recorder: a post-mortem bundle that survives the death
// of the process that wrote it.
//
// The trick is that a signal handler may only call async-signal-safe
// functions — no malloc, no snprintf, no locks — so nothing useful can
// be *rendered* at crash time. The recorder therefore renders early
// and often: Refresh() (called from every sampler tick) formats the
// full bundle body — registry snapshot, sampler ring tail, span tail,
// watchdog state, WAL/store watermarks — into the inactive half of a
// pre-allocated double buffer, then publishes it with a single atomic
// store. The SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handler only has to
// open(2) a pre-rendered path, write(2) a pre-rendered header plus the
// published buffer, close(2), and re-raise — every call on that path
// is on the async-signal-safe list.
//
// A `crashing` flag set first in the handler stops further refreshes,
// so at most one in-flight publish can land after the flag and the
// buffer being written to disk is never overwritten mid-write.
//
// Fatal-but-orderly failures (store open fails, durability backend
// refuses) use NoteFatalError(), which re-renders synchronously and
// writes the same bundle with a `reason` of "fatal_error" — the
// process exits with its usual code, but the evidence is on disk.
//
// Output: <dir>/postmortem-<pid>.json, schema "scprt-postmortem-v1"
// (documented in docs/observability.md).

#ifndef SCPRT_OBS_FLIGHT_RECORDER_H_
#define SCPRT_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "obs/watchdog.h"

namespace scprt::obs {

/// The process-wide crash recorder: keeps a pre-rendered post-mortem
/// bundle (256 KiB per buffer half; the last 8 sampler entries and the
/// newest 256 spans, at most 64 per thread) ready for the fatal-signal
/// handler to write.
class FlightRecorder {
 public:
  struct Options {
    std::string dir;               ///< where the bundle lands (must exist)
    Registry* registry = nullptr;  ///< Registry::Default() when null
    Tracer* tracer = nullptr;      ///< Tracer::Default() when null
    Sampler* sampler = nullptr;    ///< optional: ring tail in the bundle
    Watchdog* watchdog = nullptr;  ///< optional: rule state in the bundle
  };

  /// Creates the process-wide recorder and installs the fatal-signal
  /// handlers. Idempotent: later calls return the first instance
  /// (options ignored). Never destroyed — the handler may fire at any
  /// point for the rest of the process.
  static FlightRecorder& Install(const Options& options);

  /// The installed recorder, or null before Install.
  static FlightRecorder* instance();

  /// Writes a bundle for an orderly fatal error (after a synchronous
  /// re-render) if a recorder is installed; no-op otherwise. Safe to
  /// sprinkle on every exit-with-error path.
  static void NoteFatalError(const char* detail);

  /// Re-renders the bundle body and publishes it (sampler tick, or a
  /// test). Single rendering thread assumed; not signal-safe.
  void Refresh();

  /// Where the bundle will be written.
  std::string path() const { return path_; }

  /// Bytes currently published (0 until the first Refresh).
  std::size_t published_bytes() const;

  // Internal: the async-signal-safe half, public for the signal
  // handler trampoline only.
  void HandleFatalSignal(int signo);

 private:
  explicit FlightRecorder(const Options& options);

  std::string RenderBody() const;
  void WriteBundle(const char* reason_json_fragment);

  Options options_;
  Registry* registry_;
  Tracer* tracer_;
  std::string path_;
  std::unique_ptr<char[]> buffers_[2];
  /// (buffer index << 32) | body length, atomically published.
  std::atomic<std::uint64_t> published_{0};
  std::atomic<bool> crashing_{false};
  /// "{"schema":...,"pid":N," — rendered once, signal-safe to reuse.
  std::string header_;
};

}  // namespace scprt::obs

#endif  // SCPRT_OBS_FLIGHT_RECORDER_H_
