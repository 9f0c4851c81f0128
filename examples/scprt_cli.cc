// scprt_cli — command-line front end for the library:
//
//   scprt_cli gen <out.trace> [--preset tw|es] [--seed N] [--messages N]
//       Generate a synthetic trace (with ground truth) to a file.
//
//   scprt_cli run <in.trace> [--delta N] [--gamma F] [--theta N] [--w N]
//                 [--top N] [--stories] [--suppress-spurious]
//                 [--metrics-json FILE] [--trace-out FILE]
//       Run the detector over a saved trace, print the event feed and the
//       final precision/recall against the trace's ground truth.
//       --metrics-json dumps the full obs registry (per-stage latency
//       histograms and counters) at exit; --trace-out writes the
//       per-quantum span trace as Chrome about:tracing JSON. See
//       docs/observability.md.
//
//   scprt_cli ingest <in.jsonl|in.tsv|-> [--format jsonl|tsv] [--workers N]
//                 [--policy block|drop|sample]
//                 [--sample-keep F] [--seed N] [--queue N] [--delta N]
//                 [--gamma F] [--theta N] [--w N] [--top N]
//                 [--synonyms FILE] [--metrics-json FILE]
//                 [--durability-dir DIR]
//                 [--durability-fsync none|interval|commit]
//                 [--durability-cadence K] [--durability-seconds T]
//                 [--durability-full-every N] [--resume] [--trace-out FILE]
//       Stream raw text (JSON-lines or TSV; "-" reads stdin) through the
//       parallel tokenize/intern frontend into the detector and
//       print events as they are discovered, plus final ingest metrics.
//       --durability-dir makes the deployment durable: every quantum is
//       committed to a write-ahead log in DIR with group-commit fsync
//       every K quanta (and/or every T seconds), over a full-snapshot
//       segment cut every K*N quanta. --resume continues a previous run
//       from the newest durable generation + source cursor. Exit code 3
//       means the stream was processed but some durability writes
//       failed. See docs/operations.md for the runbook and docs/cli.md
//       for the full flag reference.
//
//   scprt_cli export <in.trace> <out> [--format jsonl|tsv]
//       Render a saved trace as raw text in the ingest input format.
//
//   scprt_cli info <in.trace>
//       Print trace statistics (messages, vocabulary, planted events).
//
//   scprt_cli query <store-dir> <keyword...> [--top N] [--store-frames N]
//       Answer a keyword query against an event store built by a previous
//       run/ingest with --store-dir: sketch the keywords, probe the banded
//       LSH index, and print the matching past events ranked by estimated
//       keyword Jaccard (ties: distinct-user support, recency). Needs no
//       trace or dictionary — the store is self-contained.
//
// run and ingest accept --store-dir DIR [--store-bands B] [--store-rows R]
// [--store-commit-every K] [--store-frames N]: every newly reported event
// is persisted into the LSH event store at DIR as it is discovered
// (created on first use, extended on later runs), making the run's history
// queryable afterwards. See docs/formats.md for the on-disk layout.
//
// run and ingest also accept --stats-addr HOST:PORT [--sample-every T]
// [--health-rule RULES] [--postmortem-dir DIR]: the live telemetry
// service — an embedded HTTP stats server (/metrics, /metrics.json,
// /healthz, /statusz, /tracez), a background registry sampler driving an
// SLO watchdog, and a crash flight recorder that writes a post-mortem
// bundle on fatal signals. Telemetry talks only to stderr, so stdout
// reports stay bit-identical with the service on or off. See
// docs/observability.md for endpoints, rule grammar and bundle schema.
//
// Numeric flag values are checked: empty input, trailing garbage, a sign
// on an unsigned flag or an out-of-range value prints
// "error: invalid --<flag> '<value>'" and exits 2. A flag the subcommand's
// usage line does not list prints "error: unknown flag --<flag>" and exits
// 2; the usage text is the one list of accepted flags.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "detect/detector.h"
#include "detect/postprocess.h"
#include "detect/report.h"
#include "durability/backend.h"
#include "durability/posix_file.h"
#include "engine/parallel_detector.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "ingest/durable.h"
#include "ingest/pipeline.h"
#include "ingest/text_export.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "store/event_indexer.h"
#include "store/lsh_index.h"
#include "stream/synthetic.h"
#include "stream/trace.h"
#include "text/concurrent_dictionary.h"

using namespace scprt;

// gcc 12 emits a -Wrestrict false positive from std::string assignment in
// the flag parser once it is inlined into the (now large) main — a known
// libstdc++ interaction (GCC PR105329 family). The code is a plain
// assignment from argv; suppress the bogus diagnostic for this binary.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace {

// Printed on stderr for malformed invocations. Each subcommand's line is
// also the list of flags that subcommand accepts (ListsFlag).
constexpr char kUsage[] =
    "usage:\n"
    "  scprt_cli gen <out.trace> [--preset tw|es] [--seed N] [--messages N]\n"
    "  scprt_cli run <in.trace> [--delta N] [--gamma F] [--theta N] [--w N] "
    "[--top N] [--stories] [--suppress-spurious] "
    "[--metrics-json FILE] [--trace-out FILE] [--store-dir DIR] "
    "[--store-bands B] [--store-rows R] [--store-commit-every K] "
    "[--store-frames N] [--stats-addr HOST:PORT] [--sample-every T] "
    "[--health-rule RULES] [--postmortem-dir DIR]\n"
    "  scprt_cli ingest <in.jsonl|in.tsv|-> [--format jsonl|tsv] [--workers N] "
    "[--policy block|drop|sample] [--sample-keep F] [--seed N] "
    "[--queue N] [--delta N] [--gamma F] [--theta N] [--w N] [--top N] "
    "[--synonyms FILE] [--metrics-json FILE] [--durability-dir DIR] "
    "[--durability-fsync none|interval|commit] [--durability-cadence K] "
    "[--durability-seconds T] [--durability-full-every N] [--resume] "
    "[--trace-out FILE] [--store-dir DIR] [--store-bands B] [--store-rows R] "
    "[--store-commit-every K] [--store-frames N] [--stats-addr HOST:PORT] "
    "[--sample-every T] [--health-rule RULES] [--postmortem-dir DIR]\n"
    "  scprt_cli export <in.trace> <out> [--format jsonl|tsv]\n"
    "  scprt_cli info <in.trace>\n"
    "  scprt_cli query <store-dir> <keyword...> [--top N] [--store-frames N] "
    "[--metrics-json FILE]\n";

int Usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

// `command`'s line of the usage text, or "" for an unknown command.
std::string_view UsageLine(const std::string& command) {
  const std::string_view usage = kUsage;
  const std::size_t at = usage.find("  scprt_cli " + command + " ");
  if (at == std::string_view::npos) return {};
  return usage.substr(at, usage.find('\n', at) - at);
}

// True when `usage_line` lists `--flag` (as "[--flag ..." or "[--flag]").
bool ListsFlag(std::string_view usage_line, const std::string& flag) {
  return usage_line.find("[--" + flag + " ") != std::string_view::npos ||
         usage_line.find("[--" + flag + "]") != std::string_view::npos;
}

// Tiny flag parser: --name value (or boolean --name).
struct Args {
  std::vector<std::string> positional;
  std::unordered_map<std::string, std::string> flags;
  /// Flag names in command-line order (the first unknown one is reported).
  std::vector<std::string> flag_order;

  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& dflt) const {
    auto it = flags.find(name);
    return it == flags.end() ? dflt : it->second;
  }
};

// A numeric flag whose value does not parse; main() reports it and exits 2.
struct BadFlagValue {
  std::string name;
  std::string value;
};

// The one reader of numeric flags: `T` is an unsigned integer type or
// double. The whole value must parse (no sign for unsigned types, no
// leading space, no trailing text) and fit `T`; doubles must be finite.
template <typename T>
T NumericFlag(const Args& args, const std::string& name, const char* dflt) {
  const std::string value = args.Get(name, dflt);
  const char* const end = value.data() + value.size();
  T parsed{};
  const std::from_chars_result result =
      std::from_chars(value.data(), end, parsed);
  bool ok = !value.empty() && result.ec == std::errc() && result.ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(parsed);
  if (!ok) throw BadFlagValue{name, value};
  return parsed;
}

// NumericFlag plus a range check: a value that parses but `in_range`
// refuses is rejected the same way as one that does not parse.
template <typename T, typename InRange>
T BoundedFlag(const Args& args, const std::string& name, const char* dflt,
              const InRange& in_range) {
  const T value = NumericFlag<T>(args, name, dflt);
  if (!in_range(value)) throw BadFlagValue{name, args.Get(name, dflt)};
  return value;
}

// BoundedFlag range for an integer flag with a minimum.
auto AtLeast(std::uint64_t floor) {
  return [floor](auto value) { return value >= floor; };
}

// Cap on --workers: a larger count is a typo, and thread creation would
// fail on it. 0 means "all hardware threads".
constexpr std::size_t kMaxThreadCount = 1024;

// The one reader of thread-count flags (--workers).
std::size_t ThreadCountFlag(const Args& args, const std::string& name,
                            const char* dflt) {
  return BoundedFlag<std::size_t>(
      args, name, dflt, [](std::size_t n) { return n <= kMaxThreadCount; });
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string name = token.substr(2);
      args.flag_order.push_back(name);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.flags[name] = argv[++i];
      } else {
        args.flags[name] = "1";
      }
    } else {
      args.positional.push_back(std::move(token));
    }
  }
  return args;
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// --trace-out: arm the span tracer before the run starts.
void MaybeEnableTracing(const Args& args) {
  if (args.Has("trace-out")) obs::Tracer::Default().Enable();
}

// --trace-out: drain captured spans into Chrome about:tracing JSON.
bool MaybeWriteTrace(const Args& args) {
  if (!args.Has("trace-out")) return true;
  return WriteTextFile(args.Get("trace-out", ""),
                       obs::Tracer::Default().DrainJson());
}

// --metrics-json: the obs registry's flat JSON export, the one
// machine-readable metrics format of every subcommand.
bool MaybeWriteMetrics(const Args& args) {
  if (!args.Has("metrics-json")) return true;
  return WriteTextFile(args.Get("metrics-json", ""),
                       obs::Registry::Default().SnapshotAll().FormatJson());
}

// --stats-addr / --sample-every / --health-rule / --postmortem-dir: the
// live telemetry service shared by run and ingest. Returns false (after
// printing to stderr) when a flag is malformed or the listener cannot
// bind; leaves *out null when telemetry was simply not requested. All
// output goes to stderr so stdout stays bit-identical either way.
bool MaybeStartTelemetry(
    const Args& args, const char* command,
    std::vector<std::pair<std::string, std::string>> config,
    std::unique_ptr<obs::Telemetry>* out) {
  obs::TelemetryOptions options;
  options.stats_addr = args.Get("stats-addr", "");
  options.sample_every_seconds = BoundedFlag<double>(
      args, "sample-every", "1", [](double t) { return t >= 0.0; });
  options.health_rules = args.Get("health-rule", "");
  options.postmortem_dir = args.Get("postmortem-dir", "");
  options.build_info = std::string("scprt_cli ") + command;
  options.config = std::move(config);
  if (options.stats_addr.empty() && options.health_rules.empty() &&
      options.postmortem_dir.empty()) {
    return true;  // telemetry not requested
  }
  std::string error;
  *out = obs::Telemetry::Start(options, &error);
  if (*out == nullptr) {
    std::fprintf(stderr, "error: telemetry: %s\n", error.c_str());
    return false;
  }
  if ((*out)->stats_server() != nullptr) {
    std::fprintf(stderr,
                 "telemetry: serving http://%s/ (metrics, metrics.json, "
                 "healthz, statusz, tracez)\n",
                 (*out)->stats_address().c_str());
  }
  if (obs::FlightRecorder::instance() != nullptr) {
    std::fprintf(stderr, "telemetry: post-mortem bundle at %s\n",
                 obs::FlightRecorder::instance()->path().c_str());
  }
  return true;
}

// --store-dir: the LSH event store attachment shared by run and ingest.
// Opens an existing store (STOREMETA present) or creates a fresh one, and
// wraps it in the ClusterSink the detector fires at report time.
struct StoreAttachment {
  std::unique_ptr<store::LshIndex> index;
  std::unique_ptr<store::EventIndexer> indexer;

  /// Commits the tail and reports any latched failure. True when healthy.
  bool Finish() {
    if (indexer == nullptr) return true;
    (void)indexer->Flush();
    if (!indexer->last_error().ok()) {
      std::fprintf(stderr, "warning: event store writes failed: %s\n",
                   indexer->last_error().ToString().c_str());
      obs::FlightRecorder::NoteFatalError("event store writes failed");
      return false;
    }
    std::printf("store: %llu events indexed, %u pages\n",
                static_cast<unsigned long long>(indexer->indexed()),
                index->page_count());
    return true;
  }
};

bool MaybeOpenStore(const Args& args, StoreAttachment* out) {
  if (!args.Has("store-dir")) return true;
  const std::string dir = args.Get("store-dir", "");
  store::LshOptions options;
  options.bands =
      BoundedFlag<std::uint32_t>(args, "store-bands", "8", AtLeast(1));
  options.rows =
      BoundedFlag<std::uint32_t>(args, "store-rows", "2", AtLeast(1));
  // Extending a page chain pins the old tail and the new page at once, so
  // the writer needs two frames.
  options.pool_frames =
      BoundedFlag<std::size_t>(args, "store-frames", "256", AtLeast(2));
  const auto commit_every =
      NumericFlag<std::uint32_t>(args, "store-commit-every", "1");
  durability::Error error;
  std::string meta;
  if (durability::ReadFileToString(dir + "/STOREMETA", meta)) {
    out->index = store::LshIndex::Open(dir, options, &error);
  } else {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    out->index = store::LshIndex::Create(dir, options, &error);
  }
  if (out->index == nullptr) {
    std::fprintf(stderr, "error: cannot open event store %s: %s\n",
                 dir.c_str(), error.ToString().c_str());
    obs::FlightRecorder::NoteFatalError("cannot open event store");
    return false;
  }
  out->indexer =
      std::make_unique<store::EventIndexer>(out->index.get(), commit_every);
  return true;
}

int CmdGen(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto seed = NumericFlag<std::uint64_t>(args, "seed", "42");
  stream::SyntheticConfig config = args.Get("preset", "tw") == "es"
                                       ? stream::EventSpecificPreset(seed)
                                       : stream::TimeWindowPreset(seed);
  if (args.Has("messages")) {
    config.num_messages = NumericFlag<std::size_t>(args, "messages", "0");
  }
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);
  if (!stream::WriteTraceFile(trace, args.positional[1])) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 args.positional[1].c_str());
    return 1;
  }
  std::printf("wrote %zu messages, %zu keywords, %zu planted events -> %s\n",
              trace.messages.size(), trace.dictionary.size(),
              trace.script.events.size(), args.positional[1].c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  stream::SyntheticTrace trace;
  if (!stream::ReadTraceFile(args.positional[1], trace)) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 args.positional[1].c_str());
    return 1;
  }
  std::printf("messages:   %zu\n", trace.messages.size());
  std::printf("keywords:   %zu\n", trace.dictionary.size());
  std::printf("events:     %zu (%zu real, %zu spurious)\n",
              trace.script.events.size(), trace.script.real_event_count(),
              trace.script.events.size() - trace.script.real_event_count());
  for (const auto& e : trace.script.events) {
    std::printf("  [%2d]%s %-28s start=%llu dur=%llu peak=%.3f kws=%zu\n",
                e.id, e.spurious ? " (spurious)" : "          ",
                e.headline.c_str(),
                static_cast<unsigned long long>(e.start_seq),
                static_cast<unsigned long long>(e.duration), e.peak_share,
                e.keywords.size());
  }
  return 0;
}

// The detector parameters, range-checked here so a bad value exits 2
// instead of tripping a library invariant: δ, w, θ >= 1 and 0 < γ <= 1.
detect::DetectorConfig DetectorConfigFromArgs(const Args& args) {
  detect::DetectorConfig config;
  config.quantum_size =
      BoundedFlag<std::size_t>(args, "delta", "160", AtLeast(1));
  config.akg.ec_threshold = BoundedFlag<double>(
      args, "gamma", "0.20", [](double g) { return g > 0.0 && g <= 1.0; });
  config.akg.high_state_threshold =
      BoundedFlag<std::uint32_t>(args, "theta", "4", AtLeast(1));
  config.akg.window_length =
      BoundedFlag<std::size_t>(args, "w", "30", AtLeast(1));
  return config;
}

int CmdRun(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const detect::DetectorConfig config = DetectorConfigFromArgs(args);
  const auto top = NumericFlag<std::size_t>(args, "top", "3");
  const bool stories = args.Has("stories");
  const bool suppress = args.Has("suppress-spurious");

  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = config;
  stream::SyntheticTrace trace;
  if (!stream::ReadTraceFile(args.positional[1], trace)) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 args.positional[1].c_str());
    return 1;
  }
  std::unique_ptr<obs::Telemetry> telemetry;
  if (!MaybeStartTelemetry(args, "run",
                           {{"trace", args.positional[1]},
                            {"store-dir", args.Get("store-dir", "-")}},
                           &telemetry)) {
    return 2;
  }
  engine::ParallelDetector detector(engine_config, &trace.dictionary);
  StoreAttachment event_store;
  if (!MaybeOpenStore(args, &event_store)) return 1;
  if (event_store.indexer != nullptr) {
    detector.set_cluster_sink(event_store.indexer.get());
  }
  detect::SpuriousSuppressor suppressor(3);
  MaybeEnableTracing(args);
  std::vector<detect::QuantumReport> reports;
  for (const stream::Message& m : trace.messages) {
    auto report = detector.Push(m);
    if (!report) continue;
    std::vector<detect::EventSnapshot> feed = report->events;
    if (suppress) {
      std::vector<detect::EventSnapshot> kept;
      for (std::size_t i : suppressor.Filter(feed)) {
        kept.push_back(feed[i]);
      }
      feed = std::move(kept);
    }
    bool printed_header = false;
    auto header = [&] {
      if (!printed_header) {
        std::printf("-- quantum %lld --\n",
                    static_cast<long long>(report->quantum));
        printed_header = true;
      }
    };
    if (stories) {
      const auto grouped = detect::CorrelateEvents(feed);
      std::size_t shown = 0;
      for (const auto& story : grouped) {
        if (shown++ >= top) break;
        bool any_new = false;
        for (std::size_t i : story.members) {
          any_new |= feed[i].newly_reported;
        }
        if (!any_new) continue;
        header();
        std::printf(" story (rank %.1f):\n", story.rank);
        for (std::size_t i : story.members) {
          std::printf("   %s\n",
                      FormatEvent(feed[i], trace.dictionary).c_str());
        }
      }
    } else {
      std::size_t shown = 0;
      for (const auto& snap : feed) {
        if (!snap.newly_reported || shown++ >= top) continue;
        header();
        std::printf("  %s\n", FormatEvent(snap, trace.dictionary).c_str());
      }
    }
    reports.push_back(*std::move(report));
  }

  const eval::GroundTruthMatcher matcher(trace.script);
  const eval::RunMetrics m =
      eval::EvaluateRun(reports, matcher, config.quantum_size);
  std::printf(
      "\nsummary: precision %.3f  recall %.3f  f1 %.3f  (%zu reports, "
      "%zu/%zu events)\n",
      m.precision, m.recall, m.f1, m.clusters_reported, m.events_discovered,
      m.events_planted);
  const bool store_ok = event_store.Finish();
  if (!MaybeWriteMetrics(args)) return 1;
  if (!MaybeWriteTrace(args)) return 1;
  return store_ok ? 0 : 3;
}

int CmdIngest(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const std::string& input = args.positional[1];

  // Pick the source: explicit --format wins, else the file extension.
  std::string format = args.Get("format", "");
  if (format.empty()) {
    format = input.size() >= 4 && input.substr(input.size() - 4) == ".tsv"
                 ? "tsv"
                 : "jsonl";
  }
  const bool use_stdin = input == "-";
  std::unique_ptr<ingest::LineSource> source;
  if (format == "jsonl") {
    source = use_stdin ? std::make_unique<ingest::JsonlSource>(std::cin)
                       : std::make_unique<ingest::JsonlSource>(input);
  } else if (format == "tsv") {
    source = use_stdin ? std::make_unique<ingest::TsvSource>(std::cin)
                       : std::make_unique<ingest::TsvSource>(input);
  } else {
    std::fprintf(stderr, "error: unknown --format %s\n", format.c_str());
    return Usage();
  }
  if (!source->ok()) {
    std::fprintf(stderr, "error: cannot read %s\n", input.c_str());
    return 1;
  }

  ingest::IngestConfig config;
  config.workers = ThreadCountFlag(args, "workers", "4");
  config.queue_capacity = NumericFlag<std::size_t>(args, "queue", "1024");
  if (config.queue_capacity < 2 ||
      (config.queue_capacity & (config.queue_capacity - 1)) != 0) {
    std::fprintf(stderr, "error: --queue must be a power of two >= 2\n");
    return 2;
  }
  const std::string policy = args.Get("policy", "block");
  if (policy == "block") {
    config.admission.policy = ingest::OverloadPolicy::kBlock;
  } else if (policy == "drop") {
    config.admission.policy = ingest::OverloadPolicy::kDropTail;
  } else if (policy == "sample") {
    config.admission.policy = ingest::OverloadPolicy::kFairSample;
  } else {
    std::fprintf(stderr, "error: unknown --policy %s\n", policy.c_str());
    return Usage();
  }
  config.admission.seed = NumericFlag<std::uint64_t>(args, "seed", "0");
  config.admission.sample_keep_fraction =
      NumericFlag<double>(args, "sample-keep", "0.25");
  if (config.admission.sample_keep_fraction <= 0.0 ||
      config.admission.sample_keep_fraction > 1.0) {
    std::fprintf(stderr, "error: --sample-keep must be in (0, 1]\n");
    return 2;
  }
  text::SynonymTable synonyms;
  if (args.Has("synonyms")) {
    if (!synonyms.LoadFile(args.Get("synonyms", ""))) {
      std::fprintf(stderr, "error: cannot read synonym table %s\n",
                   args.Get("synonyms", "").c_str());
      return 1;
    }
    config.synonyms = &synonyms;
  }

  const auto top = NumericFlag<std::size_t>(args, "top", "3");
  engine::ParallelDetectorConfig engine_config;
  engine_config.detector = DetectorConfigFromArgs(args);
  MaybeEnableTracing(args);
  std::unique_ptr<obs::Telemetry> telemetry;
  if (!MaybeStartTelemetry(
          args, "ingest",
          {{"input", input},
           {"format", format},
           {"workers", args.Get("workers", "4")},
           {"policy", policy}},
          &telemetry)) {
    return 2;
  }

  // --durability-dir switches to the durable session: the WAL commits
  // every quantum boundary, and with --resume the run continues from the
  // newest durable generation.
  if (args.Has("durability-dir")) {
    ingest::DurableConfig durable;
    durable.directory = args.Get("durability-dir", "");
    durable.checkpoint_quanta =
        NumericFlag<std::size_t>(args, "durability-cadence", "16");
    durable.checkpoint_seconds = BoundedFlag<double>(
        args, "durability-seconds", "0", [](double t) { return t >= 0.0; });
    durable.full_interval =
        NumericFlag<std::size_t>(args, "durability-full-every", "4");
    const std::string fsync_name = args.Get("durability-fsync", "none");
    if (!durability::ParseFsyncLevel(fsync_name, durable.fsync)) {
      std::fprintf(stderr,
                   "error: unknown --durability-fsync %s (want none, "
                   "interval or commit)\n",
                   fsync_name.c_str());
      return 2;
    }
    if (durable.full_interval < 1) {
      std::fprintf(stderr, "error: --durability-full-every must be >= 1\n");
      return 2;
    }
    if (durable.checkpoint_quanta == 0 &&
        durable.checkpoint_seconds <= 0.0) {
      std::fprintf(stderr,
                   "error: --durability-cadence 0 needs --durability-"
                   "seconds > 0 (with both triggers off nothing would ever "
                   "be committed)\n");
      return 2;
    }
    ingest::DurableIngest session(config, engine_config, durable);
    StoreAttachment event_store;
    if (!MaybeOpenStore(args, &event_store)) return 1;
    if (event_store.indexer != nullptr) {
      // The sink fires inside the engine's ProcessQuantum — before the
      // durability backend fences the boundary, so a commit covering a
      // quantum always covers its indexed events too.
      session.engine().set_cluster_sink(event_store.indexer.get());
    }
    if (args.Has("resume")) {
      const ingest::ResumeResult resume = session.Resume();
      switch (resume.outcome) {
        case ingest::ResumeResult::Outcome::kFresh:
          std::printf("resume: no checkpoint in %s — starting fresh\n",
                      durable.directory.c_str());
          break;
        case ingest::ResumeResult::Outcome::kResumed:
          std::printf(
              "resume: restored %s%s%s -> quantum %lld, record %llu\n",
              resume.segment_path.c_str(),
              resume.wal_path.empty() ? "" : " + ",
              resume.wal_path.c_str(),
              static_cast<long long>(resume.next_quantum),
              static_cast<unsigned long long>(resume.cursor.record_index));
          if (!resume.detail.empty()) {
            std::fprintf(stderr, "resume: skipped: %s\n",
                         resume.detail.c_str());
          }
          break;
        case ingest::ResumeResult::Outcome::kFailed:
          // The typed error is the point: "corrupt" means restore from an
          // older generation or accept the loss; "version skew" means the
          // software changed — take a fresh full checkpoint, nothing is
          // damaged.
          std::fprintf(
              stderr, "error: cannot resume from %s: %s\n%s%s",
              durable.directory.c_str(), resume.error.ToString().c_str(),
              resume.detail.empty() ? "" : resume.detail.c_str(),
              resume.detail.empty() ? "" : "\n");
          if (resume.error.code == durability::ErrorCode::kVersionSkew) {
            std::fprintf(stderr,
                         "hint: checkpoints were written by a different "
                         "format version; restart without --resume and a "
                         "fresh full snapshot will be taken\n");
          }
          obs::FlightRecorder::NoteFatalError(
              "cannot resume from durable state");
          return 1;
      }
    }
    const auto snapshot = session.Run(
        *source, [&](const detect::QuantumReport& report) {
          std::size_t shown = 0;
          bool printed_header = false;
          for (const auto& snap : report.events) {
            if (!snap.newly_reported || shown >= top) continue;
            if (!printed_header) {
              std::printf("-- quantum %lld --\n",
                          static_cast<long long>(report.quantum));
              printed_header = true;
            }
            std::printf(
                "  %s\n",
                FormatEvent(snap, session.dictionary().view()).c_str());
            ++shown;
          }
        });
    if (!snapshot.has_value()) {
      std::fprintf(stderr,
                   "error: source cannot seek to the resume cursor (stdin "
                   "and other one-shot streams cannot replay their tail)\n");
      return 1;
    }
    std::printf("\ningest: %s\n", snapshot->Format().c_str());
    if (snapshot->recovery_seconds > 0) {
      std::printf("recovery: %.3fs load+seek, %llu quanta replayed\n",
                  snapshot->recovery_seconds,
                  static_cast<unsigned long long>(session.replayed_quanta()));
    }
    std::printf("vocabulary: %zu keywords\n", session.dictionary().size());
    const bool store_ok = event_store.Finish();
    if (!MaybeWriteMetrics(args)) return 1;
    if (!MaybeWriteTrace(args)) return 1;
    if (!store_ok) return 3;
    if (session.checkpoint_failures() > 0) {
      // The stream itself was processed; exit 3 flags that the recovery
      // point is older than the output suggests.
      std::fprintf(stderr,
                   "warning: %llu durability commits failed (last: %s)\n",
                   static_cast<unsigned long long>(
                       session.checkpoint_failures()),
                   session.last_error().ToString().c_str());
      obs::FlightRecorder::NoteFatalError("durability commits failed");
      return 3;
    }
    return 0;
  }

  text::ConcurrentKeywordDictionary dictionary;
  engine::ParallelDetector detector(engine_config, &dictionary.view());
  StoreAttachment event_store;
  if (!MaybeOpenStore(args, &event_store)) return 1;
  if (event_store.indexer != nullptr) {
    detector.set_cluster_sink(event_store.indexer.get());
  }
  ingest::IngestPipeline pipeline(config, &dictionary);
  ingest::QuantumAssembler sink = ingest::QuantumAssembler::For(
      detector, [&](const detect::QuantumReport& report) {
        std::size_t shown = 0;
        bool printed_header = false;
        for (const auto& snap : report.events) {
          if (!snap.newly_reported || shown >= top) continue;
          if (!printed_header) {
            std::printf("-- quantum %lld --\n",
                        static_cast<long long>(report.quantum));
            printed_header = true;
          }
          std::printf("  %s\n",
                      FormatEvent(snap, dictionary.view()).c_str());
          ++shown;
        }
      });
  // The callback above is the consumer; don't also retain every report
  // (stdin streams may run unboundedly).
  sink.set_keep_reports(false);

  const ingest::IngestSnapshot stats = pipeline.Run(*source, sink);
  std::printf("\ningest: %s\n", stats.Format().c_str());
  std::printf("vocabulary: %zu keywords, %zu workers\n", dictionary.size(),
              pipeline.workers());
  const bool store_ok = event_store.Finish();
  if (!MaybeWriteMetrics(args)) return 1;
  if (!MaybeWriteTrace(args)) return 1;
  return store_ok ? 0 : 3;
}

int CmdQuery(const Args& args) {
  if (args.positional.size() < 3) return Usage();
  const std::string& dir = args.positional[1];
  std::vector<std::string> keywords(args.positional.begin() + 2,
                                    args.positional.end());
  const auto top = NumericFlag<std::size_t>(args, "top", "10");
  const auto frames = NumericFlag<std::size_t>(args, "store-frames", "256");

  durability::Error error;
  const auto index = store::LshIndex::OpenReadOnly(dir, frames, &error);
  if (index == nullptr) {
    std::fprintf(stderr, "error: cannot open event store %s: %s\n",
                 dir.c_str(), error.ToString().c_str());
    return 1;
  }
  std::vector<store::QueryResult> results;
  if (durability::Error e = index->Query(keywords, top, &results); !e.ok()) {
    std::fprintf(stderr, "error: query failed: %s\n", e.ToString().c_str());
    return 1;
  }
  std::printf("store: %u committed events, %u bands x %u rows\n",
              index->committed_events(), index->bands(), index->rows());
  if (results.empty()) {
    std::printf("no matching events\n");
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const store::QueryResult& r = results[i];
    std::string joined;
    for (const std::string& keyword : r.event.keywords) {
      if (!joined.empty()) joined += " ";
      joined += keyword;
    }
    std::printf(
        "%2zu. jaccard %.3f  cluster %llu  quantum %lld  rank %.2f  "
        "users ~%.0f  [%s]\n",
        i + 1, r.jaccard,
        static_cast<unsigned long long>(r.event.cluster_id),
        static_cast<long long>(r.event.quantum), r.event.rank,
        r.support_estimate, joined.c_str());
  }
  if (!MaybeWriteMetrics(args)) return 1;
  return 0;
}

int CmdExport(const Args& args) {
  if (args.positional.size() != 3) return Usage();
  stream::SyntheticTrace trace;
  if (!stream::ReadTraceFile(args.positional[1], trace)) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 args.positional[1].c_str());
    return 1;
  }
  const std::string format = args.Get("format", "jsonl");
  bool ok;
  if (format == "jsonl") {
    ok = ingest::WriteJsonlFile(trace, args.positional[2]);
  } else if (format == "tsv") {
    ok = ingest::WriteTsvFile(trace, args.positional[2]);
  } else {
    std::fprintf(stderr, "error: unknown --format %s\n", format.c_str());
    return Usage();
  }
  if (!ok) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 args.positional[2].c_str());
    return 1;
  }
  std::printf("wrote %zu messages as %s -> %s\n", trace.messages.size(),
              format.c_str(), args.positional[2].c_str());
  return 0;
}

int Dispatch(const Args& args) {
  if (args.positional.empty()) return Usage();
  const std::string& cmd = args.positional[0];
  const std::string_view usage_line = UsageLine(cmd);
  if (usage_line.empty()) return Usage();
  for (const std::string& flag : args.flag_order) {
    if (!ListsFlag(usage_line, flag)) {
      std::fprintf(stderr, "error: unknown flag --%s\n", flag.c_str());
      return 2;
    }
  }
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "run") return CmdRun(args);
  if (cmd == "ingest") return CmdIngest(args);
  if (cmd == "export") return CmdExport(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "query") return CmdQuery(args);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Dispatch(Parse(argc, argv));
  } catch (const BadFlagValue& bad) {
    std::fprintf(stderr, "error: invalid --%s '%s'\n", bad.name.c_str(),
                 bad.value.c_str());
    return 2;
  }
}
