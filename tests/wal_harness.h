// Test helper shared by the snapshot round-trip and WAL suites: drives a
// durability::WalBackend directory the way ingest::DurableIngest does —
// one Commit per closed quantum, at the fence the engine's own quantizer
// describes — and recovers it into a fresh engine.

#ifndef SCPRT_TESTS_WAL_HARNESS_H_
#define SCPRT_TESTS_WAL_HARNESS_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "durability/backend.h"
#include "durability/wal_backend.h"
#include "engine/parallel_detector.h"
#include "stream/message.h"
#include "text/concurrent_dictionary.h"
#include "text/keyword_dictionary.h"

namespace scprt::test_util {

class WalHarness {
 public:
  /// A fresh WAL directory `name` under the test temp dir. `vocabulary` is
  /// the dictionary the driven engine's keyword ids refer to. A generation
  /// spans 8 * `full_interval` quanta; at the default 32, more than the
  /// round-trip suites commit, every Commit after the first (which cuts
  /// the segment) appends one log record.
  WalHarness(const std::string& name, const text::KeywordDictionary& vocabulary,
             std::size_t full_interval = 4)
      : directory_(
            (std::filesystem::path(::testing::TempDir()) / name).string()) {
    std::filesystem::remove_all(directory_);
    options_.directory = directory_;
    options_.commit_quanta = 8;
    options_.full_interval = full_interval;
    dictionary_.SeedFrom(vocabulary);
    backend_ = std::make_unique<durability::WalBackend>(options_);
  }

  const std::string& directory() const { return directory_; }

  /// Commits `quantum`, already processed by `engine` (the backend
  /// records the clock and pending partial quantum of
  /// `engine.quantizer()`), and returns what the commit did.
  durability::CommitResult TryCommit(const engine::ParallelDetector& engine,
                                     const stream::Quantum& quantum) {
    durability::CommitContext ctx;
    ctx.quantum = &quantum;
    ctx.dictionary = &dictionary_;
    return backend_->Commit(engine, ctx);
  }

  /// TryCommit, expecting it to succeed.
  void Commit(const engine::ParallelDetector& engine,
              const stream::Quantum& quantum) {
    const durability::CommitResult result = TryCommit(engine, quantum);
    EXPECT_TRUE(result.error.ok()) << result.error.ToString();
    EXPECT_TRUE(result.persisted);
  }

  /// Recovers the directory (as a restarted process would) into a fresh
  /// engine. The engine's dictionary lives as long as this harness.
  durability::RecoverResult Recover() {
    recovered_dictionaries_.push_back(
        std::make_unique<text::ConcurrentKeywordDictionary>());
    durability::RecoverOptions options;
    options.dictionary = recovered_dictionaries_.back().get();
    return durability::WalBackend(options_).Recover(options);
  }

 private:
  std::string directory_;
  durability::BackendOptions options_;
  text::ConcurrentKeywordDictionary dictionary_;
  std::unique_ptr<durability::WalBackend> backend_;
  std::vector<std::unique_ptr<text::ConcurrentKeywordDictionary>>
      recovered_dictionaries_;
};

}  // namespace scprt::test_util

#endif  // SCPRT_TESTS_WAL_HARNESS_H_
