// Tests for the tier-2 telemetry service (src/obs/): watchdog rule
// grammar and trip/recover transitions, sampler ring wrap and windowed
// rate/histogram math, stats-server endpoint round-trips (in-process
// and over a real socket, including the /healthz 503 flip within one
// sample tick), flight-recorder bundle schema after injected fatal
// errors, scrape-during-detection races (the CI TSan job runs this
// suite), and the determinism bar: report digests bit-identical with
// the full telemetry stack on or off.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "detect/detector.h"
#include "detect/report.h"
#include "engine/parallel_detector.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/stats_server.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "stream/synthetic.h"

#if defined(__SANITIZE_THREAD__)
#define SCPRT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCPRT_TSAN 1
#endif
#endif

namespace scprt {
namespace {

// --- watchdog rule grammar ---

TEST(WatchdogRules, ParsesFullGrammar) {
  obs::WatchdogRule rule;
  std::string error;
  ASSERT_TRUE(obs::ParseWatchdogRule(
      "ingest.dispatch_stall_ns:p95>250ms@30s:degraded", &rule, &error))
      << error;
  EXPECT_EQ(rule.metric, "ingest.dispatch_stall_ns");
  EXPECT_EQ(rule.agg, obs::RuleAgg::kP95);
  EXPECT_DOUBLE_EQ(rule.threshold, 250e6);  // ms scaled to ns
  EXPECT_DOUBLE_EQ(rule.window_seconds, 30);
  EXPECT_EQ(rule.severity, obs::Health::kDegraded);
  EXPECT_EQ(rule.source, "ingest.dispatch_stall_ns:p95>250ms@30s:degraded");
}

TEST(WatchdogRules, DefaultsSeverityToUnhealthyAndScalesUnits) {
  obs::WatchdogRule rule;
  std::string error;
  ASSERT_TRUE(obs::ParseWatchdogRule("wal.append_ns:mean>20us@2m", &rule,
                                     &error))
      << error;
  EXPECT_DOUBLE_EQ(rule.threshold, 20e3);       // us -> ns
  EXPECT_DOUBLE_EQ(rule.window_seconds, 120);   // minutes -> seconds
  EXPECT_EQ(rule.severity, obs::Health::kUnhealthy);

  ASSERT_TRUE(
      obs::ParseWatchdogRule("ingest.queue_depth:value>8@30s", &rule,
                             &error))
      << error;
  EXPECT_DOUBLE_EQ(rule.threshold, 8.0);  // bare number: unscaled
}

TEST(WatchdogRules, RejectsMalformedRules) {
  obs::WatchdogRule rule;
  std::string error;
  EXPECT_FALSE(obs::ParseWatchdogRule("no-colon", &rule, &error));
  EXPECT_NE(error.find("grammar"), std::string::npos);
  EXPECT_FALSE(obs::ParseWatchdogRule("m:p97>1@30s", &rule, &error));
  EXPECT_NE(error.find("aggregation"), std::string::npos);
  EXPECT_FALSE(obs::ParseWatchdogRule("m:p95>1", &rule, &error));
  EXPECT_FALSE(obs::ParseWatchdogRule("m:p95>1xyz@30s", &rule, &error));
  EXPECT_FALSE(obs::ParseWatchdogRule("m:p95>1@30s:meh", &rule, &error));
  EXPECT_FALSE(obs::ParseWatchdogRule("m:p95>1@0s", &rule, &error));
  // Non-finite numbers: a NaN rule could never trip.
  for (const char* text :
       {"m:p95>nan@30s", "m:p95>inf@30s", "m:p95>-inf@30s"}) {
    EXPECT_FALSE(obs::ParseWatchdogRule(text, &rule, &error)) << text;
    EXPECT_NE(error.find("bad threshold"), std::string::npos) << error;
  }
  for (const char* text : {"m:p95>1@nan", "m:p95>1@inf"}) {
    EXPECT_FALSE(obs::ParseWatchdogRule(text, &rule, &error)) << text;
    EXPECT_NE(error.find("bad window"), std::string::npos) << error;
  }
}

TEST(WatchdogRules, ParsesCommaListsAndDefaults) {
  std::vector<obs::WatchdogRule> rules;
  std::string error;
  ASSERT_TRUE(obs::ParseWatchdogRules(
      "a.x:rate>100@10s,b.y:max>1s@60s:degraded", &rules, &error))
      << error;
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].agg, obs::RuleAgg::kRate);
  EXPECT_DOUBLE_EQ(rules[1].threshold, 1e9);

  const std::vector<obs::WatchdogRule> defaults =
      obs::DefaultWatchdogRules();
  ASSERT_EQ(defaults.size(), 3u);
  for (const obs::WatchdogRule& rule : defaults) {
    EXPECT_EQ(rule.severity, obs::Health::kDegraded) << rule.source;
  }
}

// --- sampler: ring wrap + windowed math ---

TEST(Sampler, RingWrapsAndKeepsNewest) {
  obs::Registry registry;
  obs::Counter* counter = registry.GetCounter("s.count");
  obs::SamplerOptions options;
  options.registry = &registry;
  obs::Sampler sampler(options);
  constexpr std::uint64_t kCapacity = obs::Sampler::kRingCapacity;
  constexpr std::uint64_t kTicks = kCapacity + 6;
  for (std::uint64_t i = 1; i <= kTicks; ++i) {
    counter->Store(i);
    sampler.TickNow();
  }
  EXPECT_EQ(sampler.ticks(), kTicks);
  EXPECT_EQ(sampler.size(), kCapacity);  // wrapped, oldest evicted
  const std::vector<obs::Sampler::Sample> tail = sampler.Tail(kTicks);
  ASSERT_EQ(tail.size(), kCapacity);
  EXPECT_EQ(tail.front().snapshot.CounterValue("s.count"), 7u);
  EXPECT_EQ(tail.back().snapshot.CounterValue("s.count"), kTicks);
  EXPECT_EQ(sampler.NewestCounter("s.count"), kTicks);
}

TEST(Sampler, CounterRateMatchesDeltaOverElapsed) {
  obs::Registry registry;
  obs::Counter* counter = registry.GetCounter("r.msgs");
  obs::SamplerOptions options;
  options.registry = &registry;
  obs::Sampler sampler(options);
  counter->Store(1000);
  sampler.TickNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  counter->Store(4000);
  sampler.TickNow();
  // Tiny window: the baseline is the first sample, 20ms+ older.
  const double rate = sampler.CounterRate("r.msgs", 0.001);
  ASSERT_GT(rate, 0.0);
  const std::vector<obs::Sampler::Sample> tail = sampler.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  const double dt =
      static_cast<double>(tail[1].mono_ns - tail[0].mono_ns) / 1e9;
  EXPECT_NEAR(rate, 3000.0 / dt, 3000.0 / dt * 1e-9 + 1e-9);
}

TEST(Sampler, WindowedHistogramIsNewestMinusBaseline) {
  obs::Registry registry;
  obs::Histogram* histogram = registry.GetHistogram("w.lat");
  obs::SamplerOptions options;
  options.registry = &registry;
  obs::Sampler sampler(options);
  for (int i = 0; i < 100; ++i) histogram->Record(100);
  sampler.TickNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (int i = 0; i < 50; ++i) histogram->Record(1'000'000);
  sampler.TickNow();

  // Small window: only the second batch is inside it.
  const obs::HistogramSnapshot recent =
      sampler.WindowedHistogram("w.lat", 0.001);
  EXPECT_EQ(recent.count, 50u);
  EXPECT_GT(recent.Percentile(0.5), 500'000.0);

  // Huge window: no baseline sample qualifies, so the window degrades
  // to since-start — the whole history, first tick already meaningful.
  const obs::HistogramSnapshot all =
      sampler.WindowedHistogram("w.lat", 3600.0);
  EXPECT_EQ(all.count, 150u);
  EXPECT_LT(all.Percentile(0.5), 500'000.0);
}

// --- watchdog evaluation: trip, recover, transition accounting ---

TEST(Watchdog, TripsWithinOneTickAndRecovers) {
  obs::Registry registry;
  obs::Gauge* gauge = registry.GetGauge("t.depth");
  obs::SamplerOptions options;
  options.registry = &registry;
  obs::Sampler sampler(options);

  std::vector<obs::WatchdogRule> rules;
  std::string error;
  ASSERT_TRUE(
      obs::ParseWatchdogRules("t.depth:value>5@10s", &rules, &error))
      << error;
  obs::Watchdog watchdog(rules, &registry);

  gauge->Set(1.0);
  sampler.TickNow();
  EXPECT_EQ(watchdog.Evaluate(sampler), obs::Health::kOk);

  gauge->Set(50.0);  // violated *now*: the very next tick must see it
  sampler.TickNow();
  EXPECT_EQ(watchdog.Evaluate(sampler), obs::Health::kUnhealthy);
  EXPECT_FALSE(watchdog.healthy());
  const std::vector<obs::Watchdog::RuleState> states = watchdog.States();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_TRUE(states[0].tripped);
  EXPECT_DOUBLE_EQ(states[0].last_value, 50.0);
  EXPECT_EQ(states[0].trips, 1u);

  gauge->Set(2.0);
  sampler.TickNow();
  EXPECT_EQ(watchdog.Evaluate(sampler), obs::Health::kOk);
  EXPECT_TRUE(watchdog.healthy());
  // ok -> unhealthy -> ok is two transitions, visible registry-side.
  EXPECT_EQ(
      registry.SnapshotAll().CounterValue("obs.health_transitions"), 2u);
  EXPECT_DOUBLE_EQ(registry.SnapshotAll().GaugeValue("obs.health"), 0.0);

  const std::string json = watchdog.StatusJson();
  EXPECT_NE(json.find("\"health\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"trips\":1"), std::string::npos);
}

TEST(Watchdog, DegradedDoesNotFailHealthz) {
  obs::Registry registry;
  obs::Gauge* gauge = registry.GetGauge("d.depth");
  obs::SamplerOptions options;
  options.registry = &registry;
  obs::Sampler sampler(options);
  std::vector<obs::WatchdogRule> rules;
  std::string error;
  ASSERT_TRUE(obs::ParseWatchdogRules("d.depth:value>5@10s:degraded",
                                      &rules, &error))
      << error;
  obs::Watchdog watchdog(rules, &registry);
  gauge->Set(50.0);
  sampler.TickNow();
  EXPECT_EQ(watchdog.Evaluate(sampler), obs::Health::kDegraded);
  EXPECT_TRUE(watchdog.healthy());  // degraded is a warning, not a 503

  obs::StatsServerOptions server_options;
  server_options.registry = &registry;
  server_options.watchdog = &watchdog;
  obs::StatsServer server(server_options);
  EXPECT_EQ(server.Handle("/healthz").status, 200);
}

// --- stats server: endpoint routing (no socket) ---

TEST(StatsServer, HandleRoutesEveryEndpoint) {
  obs::Registry registry;
  registry.GetCounter("h.events")->Add(42);
  obs::Tracer tracer;
  tracer.Enable();
  { obs::ScopedSpan span("handled", tracer); }

  obs::StatsServerOptions options;
  options.registry = &registry;
  options.tracer = &tracer;
  options.build_info = "test-build";
  options.config = {{"backend", "wal"}};
  obs::StatsServer server(options);

  obs::StatsServer::Response metrics = server.Handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("scprt_h_events 42"), std::string::npos);
  EXPECT_NE(metrics.body.find("scprt_process_uptime_seconds"),
            std::string::npos);

  obs::StatsServer::Response json = server.Handle("/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("\"h_events\":42"), std::string::npos);

  obs::StatsServer::Response healthz = server.Handle("/healthz");
  EXPECT_EQ(healthz.status, 200);  // no watchdog: always ok
  EXPECT_NE(healthz.body.find("\"health\":\"ok\""), std::string::npos);

  obs::StatsServer::Response statusz = server.Handle("/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("uptime_seconds:"), std::string::npos);
  EXPECT_NE(statusz.body.find("build: test-build"), std::string::npos);
  EXPECT_NE(statusz.body.find("backend: wal"), std::string::npos);
  EXPECT_NE(statusz.body.find("dropped spans:"), std::string::npos);

  obs::StatsServer::Response tracez = server.Handle("/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"name\":\"handled\""), std::string::npos);
  // /tracez is a peek, not a drain.
  EXPECT_EQ(tracer.Drain().size(), 1u);

  EXPECT_EQ(server.Handle("/nope").status, 404);
  EXPECT_EQ(server.Handle("/metrics?x=1").status, 200);  // query ignored
  EXPECT_EQ(server.requests(), 7u);
}

// --- stats server: real socket round-trips ---

TEST(StatsServer, ServesOverSocketAndFlipsHealthzWithinOneTick) {
  obs::Registry registry;
  registry.GetCounter("sock.events")->Add(7);
  obs::Gauge* gauge = registry.GetGauge("sock.depth");
  obs::SamplerOptions sampler_options;
  sampler_options.registry = &registry;
  obs::Sampler sampler(sampler_options);
  std::vector<obs::WatchdogRule> rules;
  std::string error;
  ASSERT_TRUE(obs::ParseWatchdogRules("sock.depth:value>5@10s", &rules,
                                      &error))
      << error;
  obs::Watchdog watchdog(rules, &registry);
  sampler.SetTickCallback([&watchdog](const obs::Sampler& s) {
    watchdog.Evaluate(s);
  });
  gauge->Set(0.0);
  sampler.TickNow();

  obs::StatsServerOptions options;
  options.address = "127.0.0.1:0";  // ephemeral
  options.registry = &registry;
  options.sampler = &sampler;
  options.watchdog = &watchdog;
  obs::StatsServer server(options);
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  std::string body;
  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/metrics", &body),
            200);
  EXPECT_NE(body.find("scprt_sock_events 7"), std::string::npos);
  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/healthz", &body),
            200);

  // Trip the rule; the flip must be visible after exactly one tick.
  gauge->Set(100.0);
  sampler.TickNow();
  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/healthz", &body),
            503);
  EXPECT_NE(body.find("\"health\":\"unhealthy\""), std::string::npos);

  gauge->Set(0.0);
  sampler.TickNow();
  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/healthz", &body),
            200);

  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/statusz", &body),
            200);
  EXPECT_NE(body.find("rates (trailing"), std::string::npos);
  server.Stop();
  // After Stop the port no longer answers.
  EXPECT_EQ(obs::HttpGet("127.0.0.1", server.port(), "/metrics", nullptr),
            -1);
}

TEST(StatsServer, TricklingClientIsDroppedAtTheRequestDeadline) {
  // A client that sends one byte every 250 ms never trips a per-read
  // timeout and never completes its request line. The server must hang up
  // at its fixed whole-request deadline (2 s from accept), and a /healthz
  // probe queued behind the trickler must then be answered.
  obs::Registry registry;
  obs::StatsServerOptions options;
  options.registry = &registry;
  obs::StatsServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto seconds_since_start = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::atomic<int> health_status{0};
  std::atomic<double> health_answered_at{0.0};
  std::thread prober([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    health_status = obs::HttpGet("127.0.0.1", server.port(), "/healthz",
                                 nullptr);
    health_answered_at = seconds_since_start();
  });

  bool dropped = false;
  while (!dropped && seconds_since_start() < 8.0) {
    const char byte = 'G';
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) <= 0) {
      dropped = true;
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 250) > 0) {
      char reply = 0;
      dropped = ::recv(fd, &reply, 1, 0) <= 0;  // FIN or RST: hung up
    }
  }
  const double held = seconds_since_start();
  ::close(fd);
  prober.join();

  EXPECT_TRUE(dropped) << "trickling client still connected after 8 s";
  EXPECT_GE(held, 1.5) << "dropped before the request deadline";
  EXPECT_LT(held, 4.0) << "held the accept loop past the request deadline";
  EXPECT_EQ(health_status.load(), 200);
  EXPECT_LT(health_answered_at.load(), 5.0);
}

// --- scrape during live detection (the TSan target) ---

TEST(Telemetry, ScrapeDuringDetectionIsRaceFree) {
  stream::SyntheticConfig config;
  config.seed = 11;
  config.num_messages = 6'000;
  config.num_users = 1'500;
  config.background_vocab = 2'000;
  config.num_events = 3;
  config.num_spurious = 1;
  config.event_duration_min = 2'000;
  config.event_duration_max = 4'000;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);

  obs::Tracer::Default().Enable();
  obs::SamplerOptions sampler_options;
  sampler_options.period_seconds = 0.01;
  obs::Sampler sampler(sampler_options);
  obs::Watchdog watchdog(obs::DefaultWatchdogRules());
  sampler.SetTickCallback([&watchdog](const obs::Sampler& s) {
    watchdog.Evaluate(s);
  });
  sampler.Start();

  obs::StatsServerOptions server_options;
  server_options.sampler = &sampler;
  server_options.watchdog = &watchdog;
  obs::StatsServer server(server_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Detection writes engine histograms and tracer spans on its own thread
  // while we hammer every endpoint from here.
  std::atomic<bool> done{false};
  std::thread detector_thread([&] {
    detect::DetectorConfig detector_config;
    detector_config.quantum_size = 120;
    engine::ParallelDetector detector({detector_config}, &trace.dictionary);
    detector.Run(trace.messages);
    done.store(true, std::memory_order_relaxed);
  });

  int scrapes = 0;
  const char* const targets[] = {"/metrics", "/metrics.json", "/healthz",
                                 "/statusz", "/tracez"};
  while (!done.load(std::memory_order_relaxed) || scrapes < 10) {
    const int status = obs::HttpGet(
        "127.0.0.1", server.port(),
        targets[static_cast<std::size_t>(scrapes) % 5], nullptr);
    EXPECT_TRUE(status == 200 || status == 503) << "scrape " << scrapes;
    ++scrapes;
    if (scrapes > 2000) break;  // safety valve
  }
  detector_thread.join();
  server.Stop();
  sampler.Stop();
  obs::Tracer::Default().Disable();
  obs::Tracer::Default().Drain();
  EXPECT_GE(scrapes, 10);
}

// --- determinism: telemetry on vs off ---

std::vector<std::uint64_t> DetectionDigests(
    const stream::SyntheticTrace& trace) {
  detect::DetectorConfig config;
  config.quantum_size = 120;
  engine::ParallelDetector detector({config}, &trace.dictionary);
  const std::vector<detect::QuantumReport> reports =
      detector.Run(trace.messages);
  std::vector<std::uint64_t> digests;
  digests.reserve(reports.size());
  for (const detect::QuantumReport& report : reports) {
    digests.push_back(detect::ReportDigest(report));
  }
  return digests;
}

TEST(Telemetry, ReportsBitIdenticalWithServiceOnOrOff) {
  stream::SyntheticConfig config;
  config.seed = 23;
  config.num_messages = 6'000;
  config.num_users = 1'500;
  config.background_vocab = 2'000;
  config.num_events = 3;
  config.num_spurious = 1;
  config.event_duration_min = 2'000;
  config.event_duration_max = 4'000;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);

  const std::vector<std::uint64_t> expected = DetectionDigests(trace);
  ASSERT_GT(expected.size(), 10u);

  // Full stack up: server + fast sampler + default watchdog rules.
  obs::TelemetryOptions telemetry_options;
  telemetry_options.stats_addr = "127.0.0.1:0";
  telemetry_options.sample_every_seconds = 0.01;
  std::string error;
  std::unique_ptr<obs::Telemetry> telemetry =
      obs::Telemetry::Start(telemetry_options, &error);
  ASSERT_NE(telemetry, nullptr) << error;
  ASSERT_NE(telemetry->stats_server(), nullptr);

  EXPECT_EQ(DetectionDigests(trace), expected);
  EXPECT_EQ(obs::HttpGet("127.0.0.1", telemetry->stats_server()->port(),
                         "/metrics", nullptr),
            200);
}

// --- flight recorder ---

// Minimal recursive-descent JSON syntax checker: the bundle must be
// *parseable*, not merely present.
bool SkipJsonValue(const std::string& s, std::size_t* pos);

void SkipSpace(const std::string& s, std::size_t* pos) {
  while (*pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[*pos]))) {
    ++*pos;
  }
}

bool SkipJsonString(const std::string& s, std::size_t* pos) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  ++*pos;
  while (*pos < s.size() && s[*pos] != '"') {
    if (s[*pos] == '\\') ++*pos;
    ++*pos;
  }
  if (*pos >= s.size()) return false;
  ++*pos;
  return true;
}

bool SkipJsonValue(const std::string& s, std::size_t* pos) {
  SkipSpace(s, pos);
  if (*pos >= s.size()) return false;
  const char c = s[*pos];
  if (c == '"') return SkipJsonString(s, pos);
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++*pos;
    SkipSpace(s, pos);
    if (*pos < s.size() && s[*pos] == close) {
      ++*pos;
      return true;
    }
    for (;;) {
      if (c == '{') {
        SkipSpace(s, pos);
        if (!SkipJsonString(s, pos)) return false;
        SkipSpace(s, pos);
        if (*pos >= s.size() || s[*pos] != ':') return false;
        ++*pos;
      }
      if (!SkipJsonValue(s, pos)) return false;
      SkipSpace(s, pos);
      if (*pos >= s.size()) return false;
      if (s[*pos] == ',') {
        ++*pos;
        continue;
      }
      if (s[*pos] == close) {
        ++*pos;
        return true;
      }
      return false;
    }
  }
  // number / true / false / null
  const std::size_t start = *pos;
  while (*pos < s.size() &&
         (std::isalnum(static_cast<unsigned char>(s[*pos])) ||
          s[*pos] == '-' || s[*pos] == '+' || s[*pos] == '.')) {
    ++*pos;
  }
  return *pos > start;
}

bool IsParseableJson(const std::string& s) {
  std::size_t pos = 0;
  if (!SkipJsonValue(s, &pos)) return false;
  SkipSpace(s, &pos);
  return pos == s.size();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(JsonChecker, SanityOnKnownGoodAndBad) {
  EXPECT_TRUE(IsParseableJson("{\"a\":[1,2,{\"b\":\"c\\\"d\"}],\"e\":null}"));
  EXPECT_TRUE(IsParseableJson("{}"));
  EXPECT_FALSE(IsParseableJson("{\"a\":1"));
  EXPECT_FALSE(IsParseableJson("{\"a\":}"));
  EXPECT_FALSE(IsParseableJson("{\"a\":1}trailing"));
}

// Forked fatal-error injection. TSan and fork-from-threaded-binaries
// do not mix, so the fork tests are plain-build only; the non-fork
// schema coverage above still runs everywhere.
#if !defined(SCPRT_TSAN)

class FlightRecorderTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "flight_recorder";
  void SetUp() override { std::filesystem::create_directories(dir_); }
};

// Runs `inject(recorder context)` in a forked child with a full
// telemetry wiring, returns the child's bundle path contents.
std::string RunChildAndReadBundle(const std::string& dir,
                                  void (*inject)(), int* wait_status) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: wire recorder to live sampler/watchdog, make evidence.
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("ingest.commits")->Add(17);
    registry.GetCounter("wal.sync_failures")->Add(1);
    obs::Tracer::Default().Enable();
    { obs::ScopedSpan span("doomed-quantum"); }
    obs::SamplerOptions sampler_options;
    obs::Sampler sampler(sampler_options);
    obs::Watchdog watchdog(obs::DefaultWatchdogRules());
    obs::FlightRecorder::Options options;
    options.dir = dir;
    options.sampler = &sampler;
    options.watchdog = &watchdog;
    obs::FlightRecorder& recorder = obs::FlightRecorder::Install(options);
    sampler.TickNow();
    watchdog.Evaluate(sampler);
    recorder.Refresh();
    inject();     // does not return normally
    ::_exit(97);  // unreachable
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (wait_status != nullptr) *wait_status = status;
  return ReadFile(dir + "/postmortem-" + std::to_string(pid) + ".json");
}

TEST_F(FlightRecorderTest, SigabrtLeavesParseableBundle) {
  int status = 0;
  const std::string bundle =
      RunChildAndReadBundle(dir_, +[] { std::abort(); }, &status);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);  // default disposition re-raised
  ASSERT_FALSE(bundle.empty());
  EXPECT_TRUE(IsParseableJson(bundle)) << bundle.substr(0, 400);
  EXPECT_EQ(bundle.find("{\"schema\":\"scprt-postmortem-v1\""), 0u);
  EXPECT_NE(bundle.find("\"reason\":\"signal\""), std::string::npos);
  EXPECT_NE(bundle.find("\"signal\":\"SIGABRT\""), std::string::npos);
  EXPECT_NE(bundle.find("\"signo\":6"), std::string::npos);
  // The final snapshot and span tail made it in.
  EXPECT_NE(bundle.find("\"ingest_commits\":17"), std::string::npos);
  EXPECT_NE(bundle.find("\"wal_sync_failures\":1"), std::string::npos);
  EXPECT_NE(bundle.find("\"name\":\"doomed-quantum\""), std::string::npos);
  EXPECT_NE(bundle.find("\"watchdog\":{"), std::string::npos);
  EXPECT_NE(bundle.find("\"samples\":["), std::string::npos);
}

TEST_F(FlightRecorderTest, FatalErrorPathWritesBundleWithDetail) {
  int status = 0;
  const std::string bundle = RunChildAndReadBundle(
      dir_,
      +[] {
        obs::FlightRecorder::NoteFatalError("store: page file open failed");
        ::_exit(3);
      },
      &status);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 3);  // orderly exit code preserved
  ASSERT_FALSE(bundle.empty());
  EXPECT_TRUE(IsParseableJson(bundle)) << bundle.substr(0, 400);
  EXPECT_NE(bundle.find("\"reason\":\"fatal_error\""), std::string::npos);
  EXPECT_NE(bundle.find("store: page file open failed"),
            std::string::npos);
  EXPECT_NE(bundle.find("\"metrics\":{"), std::string::npos);
}

#endif  // !SCPRT_TSAN

}  // namespace
}  // namespace scprt
