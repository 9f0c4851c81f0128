#include "obs/watchdog.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/logging.h"

namespace scprt::obs {
namespace {

const char* AggName(RuleAgg agg) {
  switch (agg) {
    case RuleAgg::kP50: return "p50";
    case RuleAgg::kP95: return "p95";
    case RuleAgg::kP99: return "p99";
    case RuleAgg::kMean: return "mean";
    case RuleAgg::kMax: return "max";
    case RuleAgg::kRate: return "rate";
    case RuleAgg::kValue: return "value";
  }
  return "?";
}

bool ParseAgg(std::string_view text, RuleAgg* out) {
  if (text == "p50") *out = RuleAgg::kP50;
  else if (text == "p95") *out = RuleAgg::kP95;
  else if (text == "p99") *out = RuleAgg::kP99;
  else if (text == "mean") *out = RuleAgg::kMean;
  else if (text == "max") *out = RuleAgg::kMax;
  else if (text == "rate") *out = RuleAgg::kRate;
  else if (text == "value") *out = RuleAgg::kValue;
  else return false;
  return true;
}

// Leading double; `rest` gets what follows it.
bool ParseNumber(std::string_view text, double* value,
                 std::string_view* rest) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *value);
  if (ec != std::errc() || ptr == begin) return false;
  *rest = std::string_view(ptr, static_cast<std::size_t>(end - ptr));
  return true;
}

bool UnitMultiplier(std::string_view unit, double* mult) {
  if (unit.empty()) *mult = 1.0;
  else if (unit == "ns") *mult = 1.0;
  else if (unit == "us") *mult = 1e3;
  else if (unit == "ms") *mult = 1e6;
  else if (unit == "s") *mult = 1e9;
  else return false;
  return true;
}

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void AppendFiniteDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

}  // namespace

const char* HealthName(Health health) {
  switch (health) {
    case Health::kOk: return "ok";
    case Health::kDegraded: return "degraded";
    case Health::kUnhealthy: return "unhealthy";
  }
  return "?";
}

bool ParseWatchdogRule(std::string_view text, WatchdogRule* rule,
                       std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "bad rule \"" + std::string(text) + "\": " + why +
               " (grammar: metric:agg>threshold[unit]@window[:severity])";
    }
    return false;
  };
  WatchdogRule r;
  r.source = std::string(text);

  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    return fail("missing metric");
  }
  r.metric = std::string(text.substr(0, colon));
  std::string_view rest = text.substr(colon + 1);

  const std::size_t gt = rest.find('>');
  if (gt == std::string_view::npos) return fail("missing '>'");
  if (!ParseAgg(rest.substr(0, gt), &r.agg)) {
    return fail("unknown aggregation \"" + std::string(rest.substr(0, gt)) +
                "\"");
  }
  rest = rest.substr(gt + 1);

  const std::size_t at = rest.find('@');
  if (at == std::string_view::npos) return fail("missing '@window'");
  std::string_view threshold_text = rest.substr(0, at);
  std::string_view unit;
  if (!ParseNumber(threshold_text, &r.threshold, &unit)) {
    return fail("bad threshold");
  }
  double mult = 1.0;
  if (!UnitMultiplier(unit, &mult)) {
    return fail("unknown unit \"" + std::string(unit) + "\"");
  }
  // A NaN threshold never trips and an infinite one never or always does;
  // scaling can overflow a finite literal too, so check the scaled value.
  r.threshold *= mult;
  if (!std::isfinite(r.threshold)) return fail("bad threshold");
  rest = rest.substr(at + 1);

  std::string_view severity;
  const std::size_t sev_colon = rest.find(':');
  if (sev_colon != std::string_view::npos) {
    severity = rest.substr(sev_colon + 1);
    rest = rest.substr(0, sev_colon);
  }
  std::string_view window_unit;
  if (!ParseNumber(rest, &r.window_seconds, &window_unit) ||
      r.window_seconds <= 0) {
    return fail("bad window");
  }
  if (window_unit == "m") {
    r.window_seconds *= 60;
  } else if (!window_unit.empty() && window_unit != "s") {
    return fail("bad window unit \"" + std::string(window_unit) + "\"");
  }
  if (!std::isfinite(r.window_seconds)) return fail("bad window");

  if (severity.empty() || severity == "unhealthy") {
    r.severity = Health::kUnhealthy;
  } else if (severity == "degraded") {
    r.severity = Health::kDegraded;
  } else {
    return fail("unknown severity \"" + std::string(severity) + "\"");
  }

  *rule = std::move(r);
  return true;
}

bool ParseWatchdogRules(std::string_view text,
                        std::vector<WatchdogRule>* rules,
                        std::string* error) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(start, comma - start);
    if (!item.empty()) {
      WatchdogRule rule;
      if (!ParseWatchdogRule(item, &rule, error)) return false;
      rules->push_back(std::move(rule));
    }
    start = comma + 1;
  }
  return true;
}

std::vector<WatchdogRule> DefaultWatchdogRules() {
  // Tripping a default is a warning light, not a page: degraded.
  static const char* const kDefaults =
      "ingest.dispatch_stall_ns:p95>250ms@30s:degraded,"
      "wal.append_ns:mean>20ms@30s:degraded,"
      "store.query_latency:p95>50ms@60s:degraded";
  std::vector<WatchdogRule> rules;
  std::string error;
  ParseWatchdogRules(kDefaults, &rules, &error);
  return rules;
}

Watchdog::Watchdog(std::vector<WatchdogRule> rules, Registry* registry) {
  Registry& r = registry != nullptr ? *registry : Registry::Default();
  health_gauge_ = r.GetGauge("obs.health");
  transitions_ = r.GetCounter("obs.health_transitions");
  states_.reserve(rules.size());
  for (WatchdogRule& rule : rules) {
    RuleState state;
    state.rule = std::move(rule);
    states_.push_back(std::move(state));
  }
}

Health Watchdog::Evaluate(const Sampler& sampler) {
  std::vector<std::string> newly_tripped;
  Health worst = Health::kOk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (RuleState& state : states_) {
      const WatchdogRule& rule = state.rule;
      double value = 0;
      switch (rule.agg) {
        case RuleAgg::kP50:
        case RuleAgg::kP95:
        case RuleAgg::kP99: {
          const HistogramSnapshot h =
              sampler.WindowedHistogram(rule.metric, rule.window_seconds);
          const double q = rule.agg == RuleAgg::kP50   ? 0.50
                           : rule.agg == RuleAgg::kP95 ? 0.95
                                                       : 0.99;
          value = h.Percentile(q);
          break;
        }
        case RuleAgg::kMean:
          value = sampler.WindowedHistogram(rule.metric, rule.window_seconds)
                      .Mean();
          break;
        case RuleAgg::kMax:
          value = static_cast<double>(
              sampler.WindowedHistogram(rule.metric, rule.window_seconds)
                  .max);
          break;
        case RuleAgg::kRate:
          value = sampler.CounterRate(rule.metric, rule.window_seconds);
          break;
        case RuleAgg::kValue:
          value = sampler.NewestGauge(rule.metric);
          if (std::isnan(value)) {
            value = static_cast<double>(sampler.NewestCounter(rule.metric));
          }
          break;
      }
      const bool tripped = std::isfinite(value) && value > rule.threshold;
      if (tripped && !state.tripped) {
        ++state.trips;
        newly_tripped.push_back(rule.source);
      }
      state.tripped = tripped;
      state.last_value = value;
      if (tripped && rule.severity > worst) worst = rule.severity;
    }
  }

  const Health previous =
      static_cast<Health>(health_.exchange(static_cast<int>(worst),
                                           std::memory_order_relaxed));
  health_gauge_->Set(static_cast<double>(worst));
  if (previous != worst) {
    transitions_->Increment();
    std::string detail;
    for (const std::string& source : newly_tripped) {
      detail += " [tripped " + source + "]";
    }
    SCPRT_LOG(kWarning) << "watchdog: health " << HealthName(previous)
                        << " -> " << HealthName(worst) << detail;
  }
  return worst;
}

std::vector<Watchdog::RuleState> Watchdog::States() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_;
}

std::string Watchdog::StatusJson() const {
  const Health h = health();
  std::string out = "{\"health\":";
  AppendJsonString(out, HealthName(h));
  out += ",\"health_code\":";
  out += std::to_string(static_cast<int>(h));
  out += ",\"transitions\":";
  out += std::to_string(transitions_->Value());
  out += ",\"rules\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& state : states_) {
    if (!first) out += ',';
    first = false;
    out += "{\"source\":";
    AppendJsonString(out, state.rule.source);
    out += ",\"metric\":";
    AppendJsonString(out, state.rule.metric);
    out += ",\"agg\":";
    AppendJsonString(out, AggName(state.rule.agg));
    out += ",\"threshold\":";
    AppendFiniteDouble(out, state.rule.threshold);
    out += ",\"window_seconds\":";
    AppendFiniteDouble(out, state.rule.window_seconds);
    out += ",\"severity\":";
    AppendJsonString(out, HealthName(state.rule.severity));
    out += ",\"tripped\":";
    out += state.tripped ? "true" : "false";
    out += ",\"value\":";
    AppendFiniteDouble(out, state.last_value);
    out += ",\"trips\":";
    out += std::to_string(state.trips);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace scprt::obs
