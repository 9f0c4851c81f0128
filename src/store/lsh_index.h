// The queryable event store: a banded Min-Hash LSH inverse index over a
// CRC-framed page file, answering "which past events match these keywords?"
// without replaying the stream.
//
// Every reported cluster is persisted once as an event record (its
// snapshot facts, keyword spellings, a K = bands x rows keyword signature,
// and the cluster's distinct-user Min-Hash signature), and its signature is
// posted into `bands` on-disk bucket chains. A query sketches its keywords
// the same way, probes one bucket per band, dedupes the candidate
// postings, loads the surviving records and re-ranks them by estimated
// keyword Jaccard — the classic S-curve: a pair with Jaccard J collides in
// at least one band with probability 1 - (1 - J^r)^b.
//
// Signatures hash keyword SPELLINGS (common/hash.h HashBytes under K
// per-function seeds), not dictionary ids, so a query needs no dictionary
// and an index outlives the run that built it.
//
// Re-ranking ties break by the distinct-user support estimate from the
// stored sketch (akg::MinHasher::EstimateDistinctUsers) — keys are
// one-per-user regardless of message counts, so a user spamming one
// keyword cannot promote a past event (tests/lsh_index_test.cc holds the
// line).
//
// Crash consistency (docs/formats.md): every page read and write goes
// straight to the PageFile (no user-space cache; the kernel's page cache
// serves re-reads), and a fresh page is written before the pointer that
// names it. Commit() = fdatasync + atomic STOREMETA publish (tmp +
// rename). The meta records the committed page count, event count
// and event-chain tail; a writer re-opening after a crash clamps the
// allocator and tail to the committed watermarks so the uncommitted
// physical tail is overwritten in place, and rebuilds the bucket
// directory from the committed event chain whenever the physical file is
// longer than the committed page count (the only case in which stale
// directory pointers can reference reusable pages). Queries filter
// postings to committed event ids and validate each record's CRC and id
// echo, so a reader sharing a live writer's file never surfaces a torn
// insert.
//
// All public entry points are serialized by one internal mutex: a query
// may run concurrently with ingest from another thread (the TSan suite
// drives exactly that).

#ifndef SCPRT_STORE_LSH_INDEX_H_
#define SCPRT_STORE_LSH_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "akg/minhash.h"
#include "durability/error.h"
#include "obs/registry.h"
#include "store/page_file.h"

namespace scprt::store {

/// Index shape. Fixed at Create and persisted in STOREMETA; Open ignores
/// the caller's copy and uses the stored one.
struct LshOptions {
  /// b: bucket chains probed per query.
  std::uint32_t bands = 8;
  /// r: signature rows hashed into one band key. bands * rows <= 64.
  std::uint32_t rows = 2;
  /// Directory slots per band (rounded up to a power of two).
  std::uint32_t directory_slots = 4096;
  /// Seed of the keyword hash family.
  std::uint64_t seed = 0x5ca1ab1e0ddba11ULL;
  /// fsync on Commit and meta publish (off only in tests).
  bool sync = true;
};

/// One decoded event record.
struct StoredEvent {
  std::uint32_t event_id = 0;
  std::uint64_t cluster_id = 0;
  std::int64_t quantum = 0;
  std::int64_t born_at = 0;
  double rank = 0.0;
  /// Window support at report time (distinct users, exact).
  std::uint64_t support = 0;
  /// Keyword spellings (possibly truncated; see kMaxRecordKeywords).
  std::vector<std::string> keywords;
  /// K = bands * rows per-function min-hash values of the keyword set.
  akg::MinHashSignature signature;
  /// Distinct-user Min-Hash signature and its size p.
  akg::MinHashSignature user_sketch;
  std::uint64_t sketch_p = 0;
};

/// One ranked query answer.
struct QueryResult {
  StoredEvent event;
  /// Fraction of the K signature positions matching the query's.
  double jaccard = 0.0;
  /// Distinct-user estimate from the stored sketch (spam-immune).
  double support_estimate = 0.0;
};

/// Caps keeping one event record within a single page.
inline constexpr std::size_t kMaxRecordKeywords = 48;
inline constexpr std::size_t kMaxSpellingBytes = 48;

/// The on-disk banded LSH event index (see the file comment).
class LshIndex {
 public:
  /// Creates an empty index in `directory` (which must exist): writes the
  /// page file (durability::IndexFileName) and publishes the initial
  /// STOREMETA.
  static std::unique_ptr<LshIndex> Create(const std::string& directory,
                                          const LshOptions& options,
                                          durability::Error* error = nullptr);

  /// Opens an existing index for writing: recovers to the committed
  /// watermarks, rebuilds the bucket directory if the file has an
  /// uncommitted physical tail, and scans the committed events to rebuild
  /// the (cluster, quantum) dedup set. `sync` is taken from `options`; the
  /// persisted shape wins over the rest.
  static std::unique_ptr<LshIndex> Open(const std::string& directory,
                                        const LshOptions& options,
                                        durability::Error* error = nullptr);

  /// Opens for queries only (O_RDONLY file, no recovery scan). Insert and
  /// Commit fail with kIo. `unused_frames` is ignored: it remains only
  /// because the repository benchmark (perfbench/src/live.cc) passes it;
  /// drop it together with that argument.
  static std::unique_ptr<LshIndex> OpenReadOnly(
      const std::string& directory, std::size_t unused_frames,
      durability::Error* error = nullptr);

  /// Inserts one reported event. Idempotent on (cluster_id, quantum) —
  /// checkpoint replay re-offers events and the second offer is a no-op.
  /// `keywords` are spellings (the signature input); `user_sketch` is the
  /// distinct-user signature exported at report time.
  durability::Error Insert(std::uint64_t cluster_id, std::int64_t quantum,
                           std::int64_t born_at, double rank,
                           std::uint64_t support,
                           const std::vector<std::string>& keywords,
                           const akg::MinHashSignature& user_sketch,
                           std::uint64_t sketch_p);

  /// Makes every insert so far durable and query-visible: file sync, then
  /// atomic meta publish (the inserts' pages are already in the file).
  durability::Error Commit();

  /// Sketches `keywords`, probes one bucket per band, dedupes candidates,
  /// loads and re-ranks them. Results ordered by (jaccard desc,
  /// support_estimate desc, quantum desc, cluster_id asc), truncated to
  /// `top_k`. Only committed events are visible.
  durability::Error Query(const std::vector<std::string>& keywords,
                          std::size_t top_k,
                          std::vector<QueryResult>* results);

  /// Every committed event in insertion order (golden corpus derivation,
  /// recovery, debugging).
  durability::Error ScanCommitted(std::vector<StoredEvent>* events);

  /// The K-value query signature of a keyword set (test hook: lets the
  /// recall suite compute collision probabilities the same way Query
  /// does).
  akg::MinHashSignature SketchKeywords(
      const std::vector<std::string>& keywords) const;

  std::uint32_t bands() const { return bands_; }
  std::uint32_t rows() const { return rows_; }
  std::uint32_t committed_events() const { return committed_events_; }
  std::uint32_t next_event_id() const;
  std::uint32_t page_count() const { return file_->page_count(); }

 private:
  LshIndex() = default;

  struct Posting {
    std::uint64_t band_key = 0;
    std::uint32_t event_id = 0;
    std::uint32_t page = 0;
    std::uint16_t offset = 0;
  };

  static std::unique_ptr<LshIndex> OpenImpl(const std::string& directory,
                                            const LshOptions& options,
                                            bool read_only,
                                            durability::Error* error);

  std::uint64_t BandKey(const akg::MinHashSignature& signature,
                        std::uint32_t band) const;
  std::uint32_t DirectoryPages() const;
  /// The directory page holding `key`'s slot in `band`, and the slot's
  /// byte offset in that page's payload.
  std::pair<std::uint32_t, std::size_t> DirectorySlot(std::uint32_t band,
                                                      std::uint64_t key) const;
  /// Reads a directory page, re-reading one whose CRC fails for a short
  /// deadline: a read-only handle can catch a live writer's in-place
  /// rewrite half done.
  durability::Error ReadDirectoryPage(std::uint32_t page, char* payload);
  durability::Error InitDirectory();
  durability::Error AppendEventRecord(const std::string& payload,
                                      std::uint32_t* page,
                                      std::uint16_t* offset);
  durability::Error AppendPosting(std::uint32_t band,
                                  const Posting& posting);
  durability::Error CollectBand(std::uint32_t band, std::uint64_t key,
                                std::vector<Posting>* postings);
  durability::Error LoadRecord(std::uint32_t page, std::uint16_t offset,
                               std::uint32_t expect_event_id,
                               StoredEvent* event, bool* valid);
  /// Walks the committed event chain; stops at the committed tail.
  durability::Error ScanChain(
      const std::function<void(const StoredEvent&, std::uint32_t page,
                               std::uint16_t offset)>& fn);
  durability::Error RebuildDirectory();
  durability::Error PublishMeta();
  std::string MetaPath() const;

  mutable std::mutex mu_;
  std::string directory_;
  std::unique_ptr<PageFile> file_;
  bool read_only_ = false;
  bool sync_ = true;

  // Shape (persisted).
  std::uint32_t bands_ = 0;
  std::uint32_t rows_ = 0;
  std::uint32_t directory_slots_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t file_number_ = 0;

  // Committed watermarks (persisted) and live tail.
  std::uint32_t committed_pages_ = 0;
  std::uint32_t committed_events_ = 0;
  std::uint32_t next_event_id_ = 0;
  std::uint32_t event_head_page_ = 0;
  std::uint32_t event_tail_page_ = 0;
  std::uint16_t event_tail_offset_ = 0;

  /// (cluster_id, quantum) of every event inserted (writer only) — the
  /// idempotency set checkpoint replay bounces off.
  std::set<std::pair<std::uint64_t, std::int64_t>> seen_;

  obs::Counter* inserts_ = nullptr;
  obs::Histogram* query_latency_ = nullptr;
};

}  // namespace scprt::store

#endif  // SCPRT_STORE_LSH_INDEX_H_
