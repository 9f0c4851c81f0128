// Telemetry facade: one Start() call that wires the tier-2 pieces
// together the way every binary wants them — sampler ticks drive the
// watchdog, the watchdog drives /healthz, every tick re-renders the
// flight recorder's post-mortem buffer, and the stats server reads all
// of it. The CLI and the examples only ever talk to this class.
//
// Everything is optional: an empty stats address means no server, a
// non-positive sample period means no sampler (and therefore a
// watchdog that never evaluates), an empty post-mortem dir means no
// recorder. Start() returns null when nothing was requested.
//
// None of it touches pipeline state: the sampler and server read
// registry snapshots, the recorder writes to its own buffers. Report
// streams are bit-identical with telemetry on or off — the acceptance
// bar the golden tests hold this to.

#ifndef SCPRT_OBS_TELEMETRY_H_
#define SCPRT_OBS_TELEMETRY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/sampler.h"
#include "obs/stats_server.h"
#include "obs/watchdog.h"

namespace scprt::obs {

/// Which telemetry pieces to start, and how.
struct TelemetryOptions {
  /// "host:port" for the stats server; empty = no server.
  std::string stats_addr;
  /// Sampler period; <= 0 disables the sampler and watchdog.
  double sample_every_seconds = 1.0;
  /// Comma-separated watchdog rules appended to the defaults. The
  /// single word "none" drops the defaults (no rules at all); a list
  /// starting with "none," drops the defaults and uses only the rest.
  std::string health_rules;
  /// Directory for the crash bundle; empty = no flight recorder.
  std::string postmortem_dir;
  /// Shown on /statusz.
  std::string build_info;
  std::vector<std::pair<std::string, std::string>> config;
};

/// The started telemetry pieces, owned together (see the file comment).
class Telemetry {
 public:
  /// Builds and starts whatever the options ask for. Returns null with
  /// empty `error` when the options request nothing, and null with a
  /// non-empty `error` on a real failure (bad rule, bind failure).
  static std::unique_ptr<Telemetry> Start(const TelemetryOptions& options,
                                          std::string* error);

  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  StatsServer* stats_server() { return server_.get(); }
  Sampler* sampler() { return sampler_.get(); }
  Watchdog* watchdog() { return watchdog_.get(); }

  /// "host:port" with any ephemeral port resolved; empty if no server.
  std::string stats_address() const;

 private:
  Telemetry() = default;

  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<Watchdog> watchdog_;
  std::unique_ptr<StatsServer> server_;
  FlightRecorder* recorder_ = nullptr;  // singleton, never destroyed
};

}  // namespace scprt::obs

#endif  // SCPRT_OBS_TELEMETRY_H_
