#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scprt::obs {
namespace {

constexpr int kPollMillis = 200;       // stop-flag check cadence
constexpr int kClientTimeoutSec = 2;   // per-write cap on the reply
// Whole-request read deadline, counted from accept: however a client
// paces its bytes, it holds the single-threaded loop (and with it
// /healthz) for at most this long before its request line is complete.
constexpr std::chrono::milliseconds kRequestDeadline{2000};
constexpr std::size_t kMaxRequestBytes = 4096;

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

bool SplitHostPort(const std::string& address, std::string* host,
                   int* port) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = address.substr(0, colon);
  const std::string port_text = address.substr(colon + 1);
  char* end = nullptr;
  const long p = std::strtol(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || p < 0 || p > 65535) return false;
  *port = static_cast<int>(p);
  return true;
}

void AppendLine(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendLine(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

}  // namespace

StatsServer::StatsServer(StatsServerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry != nullptr ? options_.registry
                                             : &Registry::Default()),
      tracer_(options_.tracer != nullptr ? options_.tracer
                                         : &Tracer::Default()),
      requests_(registry_->GetCounter("obs.stats.requests")) {}

StatsServer::~StatsServer() { Stop(); }

bool StatsServer::Start(std::string* error) {
  if (listen_fd_ >= 0) return true;
  int want_port = 0;
  if (!SplitHostPort(options_.address, &host_, &want_port)) {
    if (error != nullptr) {
      *error = "bad --stats-addr \"" + options_.address +
               "\" (want host:port)";
    }
    return false;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(want_port));
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) {
      *error = "bad --stats-addr host \"" + host_ +
               "\" (numeric IPv4 only)";
    }
    return false;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    if (error != nullptr) {
      *error = "cannot listen on " + options_.address + ": " +
               std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void StatsServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::string StatsServer::address() const {
  return host_ + ":" + std::to_string(port_);
}

void StatsServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    timeval tv{kClientTimeoutSec, 0};
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    ServeConnection(client);
    ::close(client);
  }
}

void StatsServer::ServeConnection(int fd) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + kRequestDeadline;
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return;  // deadline passed: drop the client
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t eol = request.find("\r\n");
  if (eol == std::string::npos) return;

  // "GET /target HTTP/1.x" — anything else is a 405.
  std::string_view line(request.data(), eol);
  Response response;
  if (line.substr(0, 4) != "GET ") {
    response.status = 405;
    response.body = "GET only\n";
  } else {
    std::string_view target = line.substr(4);
    const std::size_t space = target.find(' ');
    if (space != std::string_view::npos) target = target.substr(0, space);
    response = Handle(target);
  }

  char header[256];
  const int n = std::snprintf(
      header, sizeof(header),
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.status, StatusReason(response.status),
      response.content_type.c_str(), response.body.size());
  std::string reply(header, static_cast<std::size_t>(n));
  reply += response.body;
  std::size_t sent = 0;
  while (sent < reply.size()) {
    const ssize_t w = ::write(fd, reply.data() + sent, reply.size() - sent);
    if (w <= 0) break;
    sent += static_cast<std::size_t>(w);
  }
}

StatsServer::Response StatsServer::Handle(std::string_view target) const {
  requests_->Increment();
  const std::size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);

  Response response;
  if (target == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = registry_->SnapshotAll().FormatPrometheus();
  } else if (target == "/metrics.json") {
    response.content_type = "application/json";
    response.body = registry_->SnapshotAll().FormatJson();
  } else if (target == "/healthz") {
    response.content_type = "application/json";
    if (options_.watchdog != nullptr) {
      if (!options_.watchdog->healthy()) response.status = 503;
      response.body = options_.watchdog->StatusJson();
    } else {
      response.body = "{\"health\":\"ok\",\"rules\":[]}";
    }
    response.body += '\n';
  } else if (target == "/statusz") {
    response.body = StatuszText();
  } else if (target == "/tracez") {
    response.content_type = "application/json";
    response.body = FormatSpansJson(tracer_->SnapshotTail(4096, 16384));
  } else if (target == "/") {
    response.body =
        "scprt stats server\n"
        "  /metrics       Prometheus exposition\n"
        "  /metrics.json  flat JSON snapshot\n"
        "  /healthz       watchdog health (503 when unhealthy)\n"
        "  /statusz       human status page\n"
        "  /tracez        about:tracing span snapshot\n";
  } else {
    response.status = 404;
    response.body = "unknown endpoint\n";
  }
  return response;
}

std::string StatsServer::StatuszText() const {
  const RegistrySnapshot snap = registry_->SnapshotAll();
  std::string out;
  out.reserve(4096);
  AppendLine(out, "scprt statusz");
  AppendLine(out, "uptime_seconds: %.1f", ProcessUptimeSeconds());
  AppendLine(out, "process_start_unix: %.3f", ProcessStartUnixSeconds());
  AppendLine(out, "pid: %d", static_cast<int>(::getpid()));
  if (!options_.build_info.empty()) {
    AppendLine(out, "build: %s", options_.build_info.c_str());
  }

  if (!options_.config.empty()) {
    out += "\nconfig:\n";
    for (const auto& [key, value] : options_.config) {
      AppendLine(out, "  %s: %s", key.c_str(), value.c_str());
    }
  }

  out += "\nhealth: ";
  if (options_.watchdog != nullptr) {
    AppendLine(out, "%s (transitions: %llu)",
               HealthName(options_.watchdog->health()),
               static_cast<unsigned long long>(
                   snap.CounterValue("obs.health_transitions")));
    for (const Watchdog::RuleState& state : options_.watchdog->States()) {
      AppendLine(out, "  rule %s: value=%.6g tripped=%s trips=%llu",
                 state.rule.source.c_str(), state.last_value,
                 state.tripped ? "yes" : "no",
                 static_cast<unsigned long long>(state.trips));
    }
  } else {
    AppendLine(out, "ok (no watchdog)");
  }

  if (options_.sampler != nullptr) {
    const double window =
        std::max(60.0, 2 * options_.sampler->period_seconds());
    out += "\nrates (trailing ";
    AppendLine(out, "%.0fs window, %llu samples):", window,
               static_cast<unsigned long long>(options_.sampler->size()));
    AppendLine(out, "  messages/s: %.1f",
               options_.sampler->CounterRate("ingest.messages_emitted",
                                             window));
    AppendLine(out, "  records/s: %.1f",
               options_.sampler->CounterRate("ingest.records_read", window));
    AppendLine(
        out, "  commit bytes/s: %.1f",
        options_.sampler->CounterRate("ingest.commit_bytes", window));
    AppendLine(
        out, "  fsync stalls/min: %.2f",
        60.0 * options_.sampler->CounterRate("ingest.sync_failures",
                                             window));
  }

  // Top stages by total recorded time — the profile an operator reads
  // before reaching for a tracer.
  std::vector<const HistogramSnapshot*> stages;
  stages.reserve(snap.histograms.size());
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.count > 0) stages.push_back(&h);
  }
  std::sort(stages.begin(), stages.end(),
            [](const HistogramSnapshot* a, const HistogramSnapshot* b) {
              return a->sum > b->sum;
            });
  if (stages.size() > 12) stages.resize(12);
  if (!stages.empty()) {
    out += "\ntop stages by total time:\n";
    AppendLine(out, "  %-28s %10s %12s %12s %12s", "stage", "count",
               "mean_us", "p95_us", "max_us");
    for (const HistogramSnapshot* h : stages) {
      AppendLine(out, "  %-28s %10llu %12.1f %12.1f %12.1f",
                 h->name.c_str(),
                 static_cast<unsigned long long>(h->count),
                 h->Mean() / 1e3, h->Percentile(0.95) / 1e3,
                 static_cast<double>(h->max) / 1e3);
    }
  }

  out += '\n';
  AppendLine(out, "dropped spans: %llu",
             static_cast<unsigned long long>(
                 snap.CounterValue("obs.trace.dropped_spans")));
  AppendLine(out, "requests served: %llu",
             static_cast<unsigned long long>(requests_->Value()));
  return out;
}

int HttpGet(const std::string& host, int port, const std::string& target,
            std::string* body) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t w =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (w <= 0) {
      ::close(fd);
      return -1;
    }
    sent += static_cast<std::size_t>(w);
  }
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.0 200 OK\r\n..."
  const std::size_t space = reply.find(' ');
  if (space == std::string::npos) return -1;
  const int status = std::atoi(reply.c_str() + space + 1);
  if (body != nullptr) {
    const std::size_t sep = reply.find("\r\n\r\n");
    *body = sep != std::string::npos ? reply.substr(sep + 4) : "";
  }
  return status;
}

}  // namespace scprt::obs
