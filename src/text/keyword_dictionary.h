// Bidirectional keyword string <-> KeywordId interner with per-keyword
// metadata (noun flag used by the precision filter of Section 7.2.2).

#ifndef SCPRT_TEXT_KEYWORD_DICTIONARY_H_
#define SCPRT_TEXT_KEYWORD_DICTIONARY_H_

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/types.h"

namespace scprt::text {

/// Interns keyword strings to dense KeywordIds. Ids are assigned in first-
/// arrival order and never recycled; the dictionary grows for the lifetime of
/// the stream (vocabulary is far smaller than the message count). Each
/// spelling is stored once and never moves: a Spelling() reference stays
/// valid, and keeps its bytes, until the dictionary is destroyed or
/// assigned to (ConcurrentKeywordDictionary's lock-free index points at
/// them).
class KeywordDictionary {
 public:
  KeywordDictionary() = default;

  // Movable but not copyable: holds the authoritative id space.
  KeywordDictionary(KeywordDictionary&&) = default;
  KeywordDictionary& operator=(KeywordDictionary&&) = default;
  KeywordDictionary(const KeywordDictionary&) = delete;
  KeywordDictionary& operator=(const KeywordDictionary&) = delete;

  /// Returns the id of `keyword`, interning it if new. The noun flag of a
  /// new entry is initialized from text::IsLikelyNoun.
  KeywordId Intern(std::string_view keyword);

  /// Returns the id of `keyword` or kInvalidKeyword if never interned.
  KeywordId Lookup(std::string_view keyword) const;

  /// String for an id. Id must be valid.
  const std::string& Spelling(KeywordId id) const;

  /// True if keyword `id` is tagged as a noun.
  bool IsNoun(KeywordId id) const;

  /// Overrides the noun tag (used by the synthetic generator, which knows
  /// each planted keyword's part of speech exactly).
  void SetNoun(KeywordId id, bool is_noun);

  /// Number of interned keywords; ids are [0, size).
  std::size_t size() const { return spellings_.size(); }

  /// Serializes the entries (spelling + noun flag) with id >= `from_id`,
  /// in id order — the IngestState dictionary blob of the checkpoint
  /// format (docs/formats.md). Ids are implicit: entry i of the blob is
  /// keyword from_id + i. A full snapshot saves from 0; a delta saves
  /// only the tail interned since its base (ids are append-only, so the
  /// base's prefix never changes).
  void SaveState(BinaryWriter& out, KeywordId from_id = 0) const;

  /// Restores a SaveState(from_id) blob: this dictionary's size must be
  /// exactly `from_id` (empty for a full blob), and the entries append in
  /// id order. Returns false on malformed input or a size mismatch; the
  /// dictionary is unchanged then.
  bool RestoreState(BinaryReader& in, KeywordId from_id = 0);

 private:
  // The deque keeps every spelling at a fixed address, so the index can
  // key on views of them instead of second copies.
  std::deque<std::string> spellings_;
  std::unordered_map<std::string_view, KeywordId> index_;
  std::vector<bool> is_noun_;
};

}  // namespace scprt::text

#endif  // SCPRT_TEXT_KEYWORD_DICTIONARY_H_
