#include "text/concurrent_dictionary.h"

#include <functional>

namespace scprt::text {

namespace {

constexpr std::size_t kMinIndexCapacity = 64;

std::size_t Hash(std::string_view keyword) {
  return std::hash<std::string_view>{}(keyword);
}

}  // namespace

ConcurrentKeywordDictionary::ConcurrentKeywordDictionary(
    KeywordDictionary dictionary)
    : dictionary_(std::move(dictionary)) {
  IndexNewEntries();
}

void ConcurrentKeywordDictionary::SeedFrom(const KeywordDictionary& source) {
  for (KeywordId id = 0; id < source.size(); ++id) {
    const KeywordId copy = dictionary_.Intern(source.Spelling(id));
    dictionary_.SetNoun(copy, source.IsNoun(id));
  }
  IndexNewEntries();
}

KeywordId ConcurrentKeywordDictionary::TryLookup(
    std::string_view keyword) const {
  const Index* index = live_.load(std::memory_order_acquire);
  if (index == nullptr) return kInvalidKeyword;
  const std::size_t mask = index->keys.size() - 1;
  for (std::size_t slot = Hash(keyword) & mask;; slot = (slot + 1) & mask) {
    const std::string* key =
        index->keys[slot].load(std::memory_order_acquire);
    if (key == nullptr) return kInvalidKeyword;
    if (*key == keyword) return index->ids[slot];
  }
}

KeywordId ConcurrentKeywordDictionary::Intern(std::string_view keyword) {
  const KeywordId id = dictionary_.Intern(keyword);
  if (id >= indexed_) IndexNewEntries();
  return id;
}

void ConcurrentKeywordDictionary::SaveState(BinaryWriter& out,
                                            KeywordId from_id) const {
  dictionary_.SaveState(out, from_id);
}

bool ConcurrentKeywordDictionary::RestoreState(BinaryReader& in,
                                               KeywordId from_id) {
  if (!dictionary_.RestoreState(in, from_id)) return false;
  IndexNewEntries();
  return true;
}

void ConcurrentKeywordDictionary::IndexNewEntries() {
  const auto insert = [this](Index& index, KeywordId id,
                             std::memory_order order) {
    const std::string& spelling = dictionary_.Spelling(id);
    const std::size_t mask = index.keys.size() - 1;
    std::size_t slot = Hash(spelling) & mask;
    while (index.keys[slot].load(std::memory_order_relaxed) != nullptr) {
      slot = (slot + 1) & mask;
    }
    index.ids[slot] = id;
    index.keys[slot].store(&spelling, order);
  };

  const std::size_t size = dictionary_.size();
  std::size_t capacity = generations_.empty()
                             ? kMinIndexCapacity
                             : generations_.back()->keys.size();
  while (2 * size > capacity) capacity *= 2;
  if (generations_.empty() || capacity > generations_.back()->keys.size()) {
    // Fill the new generation privately, then publish it whole; readers
    // still probing the old one find a prefix of the vocabulary there.
    auto next = std::make_unique<Index>(capacity);
    for (KeywordId id = 0; id < size; ++id) {
      insert(*next, id, std::memory_order_relaxed);
    }
    live_.store(next.get(), std::memory_order_release);
    generations_.push_back(std::move(next));
  } else {
    for (KeywordId id = static_cast<KeywordId>(indexed_); id < size; ++id) {
      insert(*generations_.back(), id, std::memory_order_release);
    }
  }
  indexed_ = size;
}

}  // namespace scprt::text
