#include "akg/id_sets.h"

#include <algorithm>

#include "common/check.h"

namespace scprt::akg {

UserIdSets::UserIdSets(std::size_t window_length)
    : window_length_(window_length) {
  SCPRT_CHECK(window_length >= 1);
}

void UserIdSets::BeginQuantum() {
  SCPRT_CHECK(!quantum_open_);
  quantum_open_ = true;
  for (Shard& shard : shards_) shard.current.clear();
}

void UserIdSets::Add(KeywordId keyword, UserId user) {
  SCPRT_DCHECK(quantum_open_);
  shards_[ShardOf(keyword)].current[keyword].insert(user);
}

void UserIdSets::ExpireShard(Shard& shard) {
  if (shard.history.size() <= window_length_) return;
  for (const auto& [keyword, user] : shard.history.front()) {
    auto wit = shard.window.find(keyword);
    SCPRT_DCHECK(wit != shard.window.end());
    auto uit = wit->second.find(user);
    SCPRT_DCHECK(uit != wit->second.end());
    if (--uit->second == 0) wit->second.erase(uit);
    if (wit->second.empty()) shard.window.erase(wit);
  }
  shard.history.pop_front();
}

template <typename Users>
void UserIdSets::FoldKeyword(
    Shard& shard, KeywordId keyword, const Users& users,
    std::vector<std::pair<KeywordId, UserId>>& compact) {
  shard.last_quantum_support[keyword] =
      static_cast<std::uint32_t>(users.size());
  shard.last_quantum_keywords.push_back(keyword);
  UserCounts& counts = shard.window[keyword];
  for (UserId user : users) {
    ++counts[user];
    compact.emplace_back(keyword, user);
  }
}

void UserIdSets::FoldShard(Shard& shard) {
  shard.last_quantum_support.clear();
  shard.last_quantum_keywords.clear();
  std::vector<std::pair<KeywordId, UserId>> compact;
  for (const auto& [keyword, users] : shard.current) {
    FoldKeyword(shard, keyword, users, compact);
  }
  shard.current.clear();
  shard.history.push_back(std::move(compact));
  ExpireShard(shard);
}

void UserIdSets::MergeQuantumKeywords() {
  last_quantum_keywords_.clear();
  for (const Shard& shard : shards_) {
    last_quantum_keywords_.insert(last_quantum_keywords_.end(),
                                  shard.last_quantum_keywords.begin(),
                                  shard.last_quantum_keywords.end());
  }
  // Canonical order: reports derived downstream must not depend on message
  // arrival order within the quantum or on the id-set shard layout.
  std::sort(last_quantum_keywords_.begin(), last_quantum_keywords_.end());
}

void UserIdSets::EndQuantum() {
  SCPRT_CHECK(quantum_open_);
  quantum_open_ = false;
  for (Shard& shard : shards_) FoldShard(shard);
  MergeQuantumKeywords();
}

void UserIdSets::IngestAggregate(const QuantumAggregate& aggregate,
                                 const ParallelForFn& parallel_for) {
  SCPRT_CHECK(!quantum_open_);
  // One routing pass up front so each shard folds only its own entries
  // instead of re-scanning the whole aggregate.
  std::vector<std::vector<std::uint32_t>> owned(kIdSetShards);
  for (std::uint32_t i = 0; i < aggregate.keywords.size(); ++i) {
    owned[ShardOf(aggregate.keywords[i].keyword)].push_back(i);
  }
  const auto ingest_shard = [&](std::size_t s) {
    Shard& shard = shards_[s];
    shard.last_quantum_support.clear();
    shard.last_quantum_keywords.clear();
    std::vector<std::pair<KeywordId, UserId>> compact;
    for (std::uint32_t i : owned[s]) {
      const QuantumAggregate::Entry& entry = aggregate.keywords[i];
      FoldKeyword(shard, entry.keyword, entry.users, compact);
    }
    shard.history.push_back(std::move(compact));
    ExpireShard(shard);
  };
  if (parallel_for) {
    parallel_for(kIdSetShards, ingest_shard);
  } else {
    SerialFor(kIdSetShards, ingest_shard);
  }
  MergeQuantumKeywords();
}

std::size_t UserIdSets::QuantumSupport(KeywordId keyword) const {
  const Shard& shard = shards_[ShardOf(keyword)];
  auto it = shard.last_quantum_support.find(keyword);
  return it == shard.last_quantum_support.end() ? 0 : it->second;
}

std::size_t UserIdSets::WindowSupport(KeywordId keyword) const {
  const Shard& shard = shards_[ShardOf(keyword)];
  auto it = shard.window.find(keyword);
  return it == shard.window.end() ? 0 : it->second.size();
}

std::vector<UserId> UserIdSets::WindowUsers(KeywordId keyword) const {
  std::vector<UserId> users;
  const Shard& shard = shards_[ShardOf(keyword)];
  auto it = shard.window.find(keyword);
  if (it == shard.window.end()) return users;
  users.reserve(it->second.size());
  for (const auto& [user, _] : it->second) users.push_back(user);
  return users;
}

double UserIdSets::Jaccard(KeywordId a, KeywordId b) const {
  const Shard& shard_a = shards_[ShardOf(a)];
  const Shard& shard_b = shards_[ShardOf(b)];
  auto ita = shard_a.window.find(a);
  auto itb = shard_b.window.find(b);
  if (ita == shard_a.window.end() || itb == shard_b.window.end()) return 0.0;
  const UserCounts* small = &ita->second;
  const UserCounts* large = &itb->second;
  if (small->size() > large->size()) std::swap(small, large);
  std::size_t intersection = 0;
  for (const auto& [user, _] : *small) {
    if (large->count(user)) ++intersection;
  }
  const std::size_t unioned = small->size() + large->size() - intersection;
  return unioned == 0
             ? 0.0
             : static_cast<double>(intersection) /
                   static_cast<double>(unioned);
}

std::size_t UserIdSets::active_keywords() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.window.size();
  return total;
}

void UserIdSets::Save(BinaryWriter& out) const {
  SCPRT_CHECK(!quantum_open_);
  out.U32(static_cast<std::uint32_t>(kIdSetShards));
  out.U64(window_length_);
  for (const Shard& shard : shards_) {
    out.U32(static_cast<std::uint32_t>(shard.history.size()));
    for (const auto& entry : shard.history) {
      std::vector<std::pair<KeywordId, UserId>> sorted = entry;
      std::sort(sorted.begin(), sorted.end());
      out.U64(sorted.size());
      for (const auto& [keyword, user] : sorted) {
        out.U32(keyword);
        out.U32(user);
      }
    }
  }
}

bool UserIdSets::Restore(BinaryReader& in) {
  const auto reset = [this] {
    shards_.assign(kIdSetShards, Shard{});
    last_quantum_keywords_.clear();
    quantum_open_ = false;
  };
  reset();
  if (in.U32() != kIdSetShards || in.U64() != window_length_) {
    in.Fail();
    return false;
  }
  std::uint32_t depth0 = 0;
  for (std::size_t s = 0; s < kIdSetShards; ++s) {
    Shard& shard = shards_[s];
    const std::uint32_t depth = in.U32();
    if (s == 0) depth0 = depth;
    // Every quantum pushes one entry into every shard, so depths must
    // agree (and never exceed the window).
    if (depth != depth0 || depth > window_length_) {
      in.Fail();
      break;
    }
    for (std::uint32_t q = 0; q < depth; ++q) {
      const std::uint64_t pairs = in.U64();
      if (!in.CheckLength(pairs, 8)) break;
      std::vector<std::pair<KeywordId, UserId>> entry;
      entry.reserve(pairs);
      for (std::uint64_t i = 0; i < pairs; ++i) {
        const KeywordId keyword = in.U32();
        const UserId user = in.U32();
        // Canonical form: strictly ascending (so pairs are distinct) and
        // shard-local keywords.
        if (ShardOf(keyword) != s ||
            (!entry.empty() && entry.back() >= std::pair{keyword, user})) {
          in.Fail();
          break;
        }
        entry.emplace_back(keyword, user);
      }
      if (!in.ok()) break;
      const bool last = q + 1 == depth;
      for (const auto& [keyword, user] : entry) {
        ++shard.window[keyword][user];
        if (last) {
          if (shard.last_quantum_keywords.empty() ||
              shard.last_quantum_keywords.back() != keyword) {
            shard.last_quantum_keywords.push_back(keyword);
          }
          ++shard.last_quantum_support[keyword];
        }
      }
      shard.history.push_back(std::move(entry));
    }
    if (!in.ok()) break;
  }
  if (!in.ok()) {
    reset();
    return false;
  }
  MergeQuantumKeywords();
  return true;
}

}  // namespace scprt::akg
