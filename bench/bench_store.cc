// Event-store bench: ingest a >= 100k-message trace into the LSH index
// with the engine, then serve top-10 keyword queries from a fresh
// read-only handle, which reads every page it needs from the page file.
//
// Gate: top-10 query p95 < 50 ms (exit 1 on failure). Written as
// BENCH_store.json (metric-dict shape: lower is better) for the CI trend
// diff.
//
//   $ ./bench_store [--messages N] [--queries N] [--json FILE]

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/parallel_detector.h"
#include "store/event_indexer.h"
#include "store/lsh_index.h"
#include "stream/synthetic.h"

namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

// Parses a whole decimal count > 0; false on anything else.
bool ParsePositive(const char* text, std::size_t* out) {
  // strtoull alone would accept leading blanks and wrap "-5".
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno != 0 || value == 0) return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scprt;
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;

  std::size_t messages = 120'000;
  std::size_t query_count = 300;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--messages") == 0 && i + 1 < argc &&
        ParsePositive(argv[i + 1], &messages)) {
      ++i;
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc &&
               ParsePositive(argv[i + 1], &query_count)) {
      ++i;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--messages N] [--queries N] [--json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("\n=== Event store: ingest + query latency ===\n\n");
  stream::SyntheticConfig trace_config = stream::TimeWindowPreset(0xBE7C);
  trace_config.num_messages = messages;
  const stream::SyntheticTrace trace =
      stream::GenerateSyntheticTrace(trace_config);
  std::printf("trace    : %zu messages, %zu users\n", trace.messages.size(),
              static_cast<std::size_t>(trace_config.num_users));

  const fs::path dir = fs::temp_directory_path() / "scprt_bench_store";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  // Ingest: detector -> sink -> index, committed every report.
  store::LshOptions options;
  options.sync = false;  // isolate index cost from fsync scheduling noise
  durability::Error error;
  auto index = store::LshIndex::Create(dir.string(), options, &error);
  if (index == nullptr) {
    std::fprintf(stderr, "create failed: %s\n", error.ToString().c_str());
    return 1;
  }
  store::EventIndexer indexer(index.get(), /*commit_every=*/1);
  engine::ParallelDetector engine(engine::ParallelDetectorConfig{},
                                  &trace.dictionary);
  engine.set_cluster_sink(&indexer);

  const auto ingest_start = Clock::now();
  for (const stream::Message& message : trace.messages) {
    (void)engine.Push(message);
  }
  if (!indexer.Flush().ok() || !indexer.last_error().ok()) {
    std::fprintf(stderr, "indexing failed: %s\n",
                 indexer.last_error().ToString().c_str());
    return 1;
  }
  const double ingest_seconds =
      std::chrono::duration<double>(Clock::now() - ingest_start).count();
  const std::uint32_t pages = index->page_count();
  const std::uint32_t events = index->committed_events();
  std::printf("ingest   : %.2f s — %u events, %u pages (%.1f MB)\n",
              ingest_seconds, events, pages,
              static_cast<double>(pages) * store::kPageSize / 1e6);
  if (events == 0) {
    std::fprintf(stderr, "no events reported — trace degenerated\n");
    return 1;
  }

  // The fixed query mix, derived from the committed events: full keyword
  // sets, half-prefixes, and cross-event blends.
  std::vector<store::StoredEvent> stored;
  if (durability::Error e = index->ScanCommitted(&stored); !e.ok()) {
    std::fprintf(stderr, "scan failed: %s\n", e.ToString().c_str());
    return 1;
  }
  index.reset();
  std::vector<std::vector<std::string>> queries;
  for (std::size_t i = 0; queries.size() < query_count; ++i) {
    const store::StoredEvent& event = stored[i % stored.size()];
    const std::vector<std::string>& kw = event.keywords;
    switch ((i / stored.size()) % 3) {
      case 0:
        queries.push_back(kw);
        break;
      case 1:
        queries.emplace_back(
            kw.begin(),
            kw.begin() + std::max<std::size_t>(1, kw.size() / 2));
        break;
      default: {
        std::vector<std::string> mix(
            kw.begin(), kw.begin() + std::min<std::size_t>(3, kw.size()));
        const std::vector<std::string>& other =
            stored[(i + 1) % stored.size()].keywords;
        mix.insert(mix.end(), other.begin(),
                   other.begin() + std::min<std::size_t>(3, other.size()));
        queries.push_back(std::move(mix));
        break;
      }
    }
  }

  auto reader = store::LshIndex::OpenReadOnly(dir.string(), 0, &error);
  if (reader == nullptr) {
    std::fprintf(stderr, "open failed: %s\n", error.ToString().c_str());
    return 1;
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(queries.size());
  std::size_t hits = 0;
  for (const std::vector<std::string>& query : queries) {
    std::vector<store::QueryResult> results;
    const auto start = Clock::now();
    if (durability::Error e = reader->Query(query, 10, &results); !e.ok()) {
      std::fprintf(stderr, "query failed: %s\n", e.ToString().c_str());
      return 1;
    }
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    hits += !results.empty();
  }
  const double p50 = Percentile(latencies_ms, 0.50);
  const double p95 = Percentile(latencies_ms, 0.95);
  const double p99 = Percentile(latencies_ms, 0.99);
  std::printf("queries  : %zu top-10 probes, %zu non-empty\n",
              latencies_ms.size(), hits);
  std::printf("latency  : p50 %.3f ms   p95 %.3f ms   p99 %.3f ms\n", p50,
              p95, p99);

  const bool gate = p95 < 50.0;
  std::printf("gate     : p95 %.3f ms %s 50 ms%s\n", p95, gate ? "<" : ">=",
              gate ? "" : "  (FAIL)");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"messages\": %zu,\n"
                 "  \"events\": %u,\n"
                 "  \"pages\": %u,\n"
                 "  \"ingest\": {\"seconds\": %.4f},\n"
                 "  \"query\": {\"p50_ms\": %.4f, \"p95_ms\": %.4f, "
                 "\"p99_ms\": %.4f},\n"
                 "  \"gate\": {\"query_p95_below_50ms\": %s}\n"
                 "}\n",
                 trace.messages.size(), events, pages,
                 ingest_seconds, p50, p95, p99, gate ? "true" : "false");
    std::fclose(out);
  }
  fs::remove_all(dir, ec);
  return gate ? 0 : 1;
}
