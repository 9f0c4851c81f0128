// SLO watchdog: declarative rules evaluated against the sampler's
// windowed view on every tick, driving a tri-state health signal.
//
// Rule grammar (one rule; the CLI joins several with commas):
//
//   metric:agg>threshold[unit]@window[:severity]
//
//   agg       p50 | p95 | p99 | mean | max   windowed histogram stats
//             rate                           counter increase per second
//             value                          newest gauge (or counter)
//   unit      ns | us | ms | s   scales the threshold to nanoseconds
//             (bare numbers compare unscaled — ratios, counts, rates)
//   window    <seconds>s | <minutes>m   trailing evaluation window
//   severity  degraded | unhealthy   what tripping means (default
//             unhealthy — a rule an operator writes is a page)
//
//   e.g.  ingest.dispatch_stall_ns:p95>250ms@30s:degraded
//
// Health is the worst tripped severity: ok < degraded < unhealthy.
// Only unhealthy turns /healthz into a 503 — degraded is a warning
// light, visible on /statusz and in the obs.health gauge (0/1/2), not
// a reason for a load balancer to pull the instance. Every transition
// increments obs.health_transitions and emits one structured log line.
//
// The default rules watch the three standing objectives from the
// related work: dispatch-stall p95 (admission latency burn), WAL mean
// commit stall (durability tax) and store query p95 (interactive search
// SLO). All default to `degraded` — the thresholds are tuned for CI
// hardware, not a page.

#ifndef SCPRT_OBS_WATCHDOG_H_
#define SCPRT_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "obs/sampler.h"

namespace scprt::obs {

enum class Health : int { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

const char* HealthName(Health health);

enum class RuleAgg { kP50, kP95, kP99, kMean, kMax, kRate, kValue };

/// One parsed rule of the grammar in the file comment.
struct WatchdogRule {
  std::string metric;
  RuleAgg agg = RuleAgg::kP95;
  double threshold = 0;  // already scaled (ns for ns/us/ms/s units)
  double window_seconds = 30;
  Health severity = Health::kUnhealthy;
  std::string source;  // the text this was parsed from, for display
};

/// Parses one rule. On failure returns false and describes why.
bool ParseWatchdogRule(std::string_view text, WatchdogRule* rule,
                       std::string* error);

/// Parses a comma-separated rule list (empty items ignored).
bool ParseWatchdogRules(std::string_view text,
                        std::vector<WatchdogRule>* rules,
                        std::string* error);

/// The four standing default rules (see file comment).
std::vector<WatchdogRule> DefaultWatchdogRules();

/// Evaluates rules against a sampler on each tick and keeps the health
/// verdict.
class Watchdog {
 public:
  struct RuleState {
    WatchdogRule rule;
    bool tripped = false;
    double last_value = 0;     // last evaluated aggregate
    std::uint64_t trips = 0;   // ok->tripped transitions
  };

  /// Registers the obs.health gauge and obs.health_transitions counter
  /// in `registry` (Registry::Default() when null).
  explicit Watchdog(std::vector<WatchdogRule> rules,
                    Registry* registry = nullptr);

  /// Evaluates every rule against the sampler's windows and updates the
  /// health state. Called from the sampler's tick callback.
  Health Evaluate(const Sampler& sampler);

  Health health() const {
    return static_cast<Health>(health_.load(std::memory_order_relaxed));
  }
  bool healthy() const { return health() != Health::kUnhealthy; }

  std::vector<RuleState> States() const;

  /// {"health":"ok","rules":[{...}]} — what /statusz and the
  /// post-mortem bundle embed.
  std::string StatusJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<RuleState> states_;
  std::atomic<int> health_{static_cast<int>(Health::kOk)};
  Gauge* health_gauge_;
  Counter* transitions_;
};

}  // namespace scprt::obs

#endif  // SCPRT_OBS_WATCHDOG_H_
