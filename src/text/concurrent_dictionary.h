// Thread-safe keyword interner for the ingest frontend.
//
// KeywordDictionary assigns ids in first-arrival order, and the whole
// detection stack (canonical keyword and edge order, snapshot bytes,
// report digests, golden traces) depends on that order being
// deterministic. A naive lock-free concurrent interner
// would assign ids in scheduling order and make every downstream report a
// function of thread timing. This wrapper therefore splits the two
// operations the ingest pipeline actually needs:
//
//   * TryLookup — called concurrently by every tokenizer worker. After
//     vocabulary warm-up this is ~100% of calls. It takes no lock: it
//     probes an append-only open-addressing index whose slots point at the
//     dictionary's own spellings.
//   * Intern    — called only by the single collector thread, in stream
//     order. New ids are thus assigned in first-arrival *sequence* order
//     regardless of worker count, which is what keeps the raw-text path
//     bit-identical to the trace path (tests/ingest_pipeline_test.cc).
//     A new entry is published to the index after its spelling is written,
//     so a reader either misses it (and the collector interns the word,
//     finding the id it already has) or sees it whole.
//
// Readers never touch the KeywordDictionary itself, only the index and
// the spellings it points at, which never move or change. The dictionary
// is exposed read-only for the detector (noun filter, report formatting),
// which runs on the interning thread, so no write is concurrent with its
// reads. A reader that loaded an index generation before a resize keeps
// probing it, so old generations live as long as this object.

#ifndef SCPRT_TEXT_CONCURRENT_DICTIONARY_H_
#define SCPRT_TEXT_CONCURRENT_DICTIONARY_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "text/keyword_dictionary.h"

namespace scprt::text {

/// Lock-free-read / single-writer facade over a KeywordDictionary.
class ConcurrentKeywordDictionary {
 public:
  ConcurrentKeywordDictionary() = default;

  /// Takes ownership of an existing dictionary (ids are preserved), e.g. a
  /// synthetic trace's vocabulary when replaying it as raw text.
  explicit ConcurrentKeywordDictionary(KeywordDictionary dictionary);

  ConcurrentKeywordDictionary(const ConcurrentKeywordDictionary&) = delete;
  ConcurrentKeywordDictionary& operator=(const ConcurrentKeywordDictionary&) =
      delete;

  /// Copies `source` entry by entry, preserving noun flags — and ids, when
  /// this dictionary is still empty (KeywordDictionary itself is move-only,
  /// hence the copy loop). Must not run concurrently with any other member.
  void SeedFrom(const KeywordDictionary& source);

  /// Id of `keyword`, or kInvalidKeyword if not (yet) visible. Lock-free;
  /// safe to call from any number of threads concurrently with Intern.
  KeywordId TryLookup(std::string_view keyword) const;

  /// Interns `keyword` (id of the existing entry when already present).
  /// Single-writer: only one thread may intern, but it may do so while
  /// other threads TryLookup.
  KeywordId Intern(std::string_view keyword);

  /// Serializes the entries with id >= from_id
  /// (KeywordDictionary::SaveState). Runs on the interning thread (the
  /// ingest checkpoint fence saves there, at quantum boundaries) or while
  /// no one interns; workers may TryLookup meanwhile.
  void SaveState(BinaryWriter& out, KeywordId from_id = 0) const;

  /// Restores a SaveState(from_id) blob; the dictionary's size must equal
  /// from_id (empty for a full blob — checkpoint resume restores the full
  /// snapshot's blob first, then appends the delta's tail). Returns false
  /// on malformed input or a size mismatch. Must not run concurrently
  /// with any other member.
  bool RestoreState(BinaryReader& in, KeywordId from_id = 0);

  /// Number of interned keywords. Interning thread, or while no one
  /// interns.
  std::size_t size() const { return dictionary_.size(); }

  /// Read-only view for the detector and report formatting. Callers must
  /// not use it concurrently with Intern; the ingest pipeline guarantees
  /// that by interning and detecting on the same thread.
  const KeywordDictionary& view() const { return dictionary_; }

 private:
  // One generation of the index: linear probing, at most half full. Slot i
  // is empty while keys[i] is null; ids[i] is written before keys[i] is
  // published (release), and neither changes afterwards.
  struct Index {
    explicit Index(std::size_t capacity) : keys(capacity), ids(capacity) {}
    std::vector<std::atomic<const std::string*>> keys;
    std::vector<KeywordId> ids;
  };

  // Publishes dictionary entries [indexed_, size()) to the index, moving
  // to a larger generation first when they would make it over half full.
  void IndexNewEntries();

  KeywordDictionary dictionary_;
  std::vector<std::unique_ptr<Index>> generations_;  // back() is live
  std::atomic<const Index*> live_{nullptr};
  std::size_t indexed_ = 0;  // entries published to the index
};

}  // namespace scprt::text

#endif  // SCPRT_TEXT_CONCURRENT_DICTIONARY_H_
