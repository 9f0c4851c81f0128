#include "text/keyword_dictionary.h"

#include "common/check.h"
#include "text/pos_tagger.h"

namespace scprt::text {

KeywordId KeywordDictionary::Intern(std::string_view keyword) {
  auto it = index_.find(keyword);
  if (it != index_.end()) return it->second;
  const KeywordId id = static_cast<KeywordId>(spellings_.size());
  spellings_.emplace_back(keyword);
  is_noun_.push_back(IsLikelyNoun(keyword));
  index_.emplace(spellings_.back(), id);
  return id;
}

KeywordId KeywordDictionary::Lookup(std::string_view keyword) const {
  auto it = index_.find(keyword);
  return it == index_.end() ? kInvalidKeyword : it->second;
}

const std::string& KeywordDictionary::Spelling(KeywordId id) const {
  SCPRT_CHECK(id < spellings_.size());
  return spellings_[id];
}

bool KeywordDictionary::IsNoun(KeywordId id) const {
  SCPRT_CHECK(id < is_noun_.size());
  return is_noun_[id];
}

void KeywordDictionary::SetNoun(KeywordId id, bool is_noun) {
  SCPRT_CHECK(id < is_noun_.size());
  is_noun_[id] = is_noun;
}

void KeywordDictionary::SaveState(BinaryWriter& out, KeywordId from_id) const {
  SCPRT_CHECK(from_id <= spellings_.size());
  out.U64(spellings_.size() - from_id);
  for (std::size_t id = from_id; id < spellings_.size(); ++id) {
    out.U32(static_cast<std::uint32_t>(spellings_[id].size()));
    out.Bytes(spellings_[id].data(), spellings_[id].size());
    out.U8(is_noun_[id] ? 1 : 0);
  }
}

bool KeywordDictionary::RestoreState(BinaryReader& in, KeywordId from_id) {
  if (spellings_.size() != from_id) return false;
  const std::uint64_t count = in.U64();
  // An entry is at least a length, one spelling byte and the noun flag.
  if (!in.CheckLength(count, 4 + 1 + 1)) return false;
  // Parse into a scratch dictionary so a malformed blob leaves this one
  // untouched, then append the scratch entries atomically.
  KeywordDictionary parsed;
  parsed.is_noun_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t length = in.U32();
    if (!in.CheckLength(length, 1) || length == 0) {
      in.Fail();
      return false;
    }
    std::string spelling(length, '\0');
    if (!in.ReadBytes(spelling.data(), length)) return false;
    const std::uint8_t noun = in.U8();
    if (!in.ok() || noun > 1) {
      in.Fail();
      return false;
    }
    // Intern() assigns exactly i when spellings are distinct; a duplicate
    // (within the blob, or against the prefix we are appending to) would
    // silently shift every later id, so reject it.
    if (parsed.Intern(spelling) != i ||
        (from_id > 0 && Lookup(spelling) != kInvalidKeyword)) {
      in.Fail();
      return false;
    }
    parsed.is_noun_.back() = noun != 0;
  }
  if (from_id == 0) {
    *this = std::move(parsed);
    return true;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const KeywordId id = Intern(parsed.spellings_[i]);
    SCPRT_CHECK(id == from_id + i);
    is_noun_[id] = parsed.is_noun_[i];
  }
  return true;
}

}  // namespace scprt::text
