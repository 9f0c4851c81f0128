#include "akg/id_sets.h"

#include <algorithm>
#include <functional>
#include <iterator>

#include "common/check.h"

namespace scprt::akg {

UserIdSets::UserIdSets(std::size_t window_length)
    : window_length_(window_length) {
  SCPRT_CHECK(window_length >= 1);
}

void UserIdSets::FoldUsers(WindowSet& set, const std::vector<UserId>& users) {
  std::vector<UserId>& have = set.users;
  std::vector<std::uint32_t>& quanta = set.quanta;
  // Count the users new to the window, so the merge can run backward in
  // place: every slot it writes has already been read.
  std::size_t fresh = 0;
  std::size_t i = 0;
  for (UserId user : users) {
    while (i < have.size() && have[i] < user) ++i;
    if (i == have.size() || have[i] != user) ++fresh;
  }
  std::size_t read = have.size();
  std::size_t write = read + fresh;
  have.resize(write);
  quanta.resize(write);
  for (std::size_t j = users.size(); j > 0;) {
    const UserId user = users[j - 1];
    --write;
    if (read > 0 && have[read - 1] > user) {
      --read;
      have[write] = have[read];
      quanta[write] = quanta[read];
    } else if (read > 0 && have[read - 1] == user) {
      --read;
      --j;
      quanta[write] = quanta[read] + 1;
      have[write] = user;
    } else {
      --j;
      have[write] = user;
      quanta[write] = 1;
    }
  }
  // The first `read` entries were already in place (write == read).
}

void UserIdSets::ExpireOldest(Shard& shard) {
  const HistoryEntry& oldest = shard.history.front();
  for (std::size_t run = 0; run < oldest.size();) {
    const KeywordId keyword = oldest[run].first;
    const auto it = shard.window.find(keyword);
    SCPRT_DCHECK(it != shard.window.end());
    WindowSet& set = it->second;
    // The run's users are ascending and each is in the set.
    bool emptied = false;
    std::size_t i = 0;
    for (; run < oldest.size() && oldest[run].first == keyword; ++run) {
      while (set.users[i] < oldest[run].second) ++i;
      SCPRT_DCHECK(set.users[i] == oldest[run].second);
      if (--set.quanta[i] == 0) emptied = true;
    }
    if (!emptied) continue;
    std::size_t kept = 0;
    for (std::size_t j = 0; j < set.users.size(); ++j) {
      if (set.quanta[j] == 0) continue;
      set.users[kept] = set.users[j];
      set.quanta[kept] = set.quanta[j];
      ++kept;
    }
    if (kept == 0) {
      shard.window.erase(it);
    } else {
      set.users.resize(kept);
      set.quanta.resize(kept);
    }
  }
  shard.history.pop_front();
}

void UserIdSets::RefoldWindow(Shard& shard) {
  // Each (keyword, user) pair packed into one integer, so the sort orders
  // by keyword, then user, with one comparison.
  std::vector<std::uint64_t> keys;
  std::size_t total = 0;
  for (const HistoryEntry& entry : shard.history) total += entry.size();
  keys.reserve(total);
  for (const HistoryEntry& entry : shard.history) {
    for (const auto& [keyword, user] : entry) {
      keys.push_back(std::uint64_t{keyword} << 32 | user);
    }
  }
  std::sort(keys.begin(), keys.end());
  WindowSet* set = nullptr;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t end = i + 1;
    while (end < keys.size() && keys[end] == keys[i]) ++end;
    const auto keyword = static_cast<KeywordId>(keys[i] >> 32);
    if (i == 0 || keys[i - 1] >> 32 != keyword) set = &shard.window[keyword];
    set->users.push_back(static_cast<UserId>(keys[i]));
    set->quanta.push_back(static_cast<std::uint32_t>(end - i));
    i = end;
  }
}

void UserIdSets::MergeQuantumKeywords() {
  last_quantum_keywords_.clear();
  for (const Shard& shard : shards_) {
    last_quantum_keywords_.insert(last_quantum_keywords_.end(),
                                  shard.last_quantum_keywords.begin(),
                                  shard.last_quantum_keywords.end());
  }
  // Canonical order: reports derived downstream must not depend on the
  // id-set shard layout.
  std::sort(last_quantum_keywords_.begin(), last_quantum_keywords_.end());
}

void UserIdSets::IngestAggregate(const QuantumAggregate& aggregate,
                                 const ParallelForFn& parallel_for) {
  // One routing pass up front so each shard folds only its own entries
  // instead of re-scanning the whole aggregate. Keywords ascending keep
  // every shard's history entry (keyword, user)-sorted.
  std::vector<std::vector<std::uint32_t>> owned(kIdSetShards);
  for (std::uint32_t i = 0; i < aggregate.keywords.size(); ++i) {
    SCPRT_CHECK(i == 0 || aggregate.keywords[i - 1].keyword <
                              aggregate.keywords[i].keyword);
    owned[ShardOf(aggregate.keywords[i].keyword)].push_back(i);
  }
  const auto ingest_shard = [&](std::size_t s) {
    Shard& shard = shards_[s];
    if (shard.history.size() == window_length_) ExpireOldest(shard);
    shard.last_quantum_support.clear();
    shard.last_quantum_keywords.clear();
    HistoryEntry entry;
    for (std::uint32_t i : owned[s]) {
      const auto& [keyword, users] = aggregate.keywords[i];
      SCPRT_CHECK(!users.empty() &&
                  std::adjacent_find(users.begin(), users.end(),
                                     std::greater_equal<UserId>()) ==
                      users.end());
      shard.last_quantum_support[keyword] =
          static_cast<std::uint32_t>(users.size());
      shard.last_quantum_keywords.push_back(keyword);
      FoldUsers(shard.window[keyword], users);
      for (UserId user : users) entry.emplace_back(keyword, user);
    }
    shard.history.push_back(std::move(entry));
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
  return WindowUsers(keyword).size();
}

const std::vector<UserId>& UserIdSets::WindowUsers(KeywordId keyword) const {
  static const std::vector<UserId> kAbsent;
  const Shard& shard = shards_[ShardOf(keyword)];
  auto it = shard.window.find(keyword);
  return it == shard.window.end() ? kAbsent : it->second.users;
}

std::size_t UserIdSets::UnionSupport(
    const std::vector<KeywordId>& keywords) const {
  std::vector<UserId> users, merged;
  for (KeywordId keyword : keywords) {
    const std::vector<UserId>& window = WindowUsers(keyword);
    merged.clear();
    std::set_union(users.begin(), users.end(), window.begin(), window.end(),
                   std::back_inserter(merged));
    users.swap(merged);
  }
  return users.size();
}

double UserIdSets::Jaccard(KeywordId a, KeywordId b) const {
  const std::vector<UserId>& users_a = WindowUsers(a);
  const std::vector<UserId>& users_b = WindowUsers(b);
  if (users_a.empty() || users_b.empty()) return 0.0;
  std::size_t intersection = 0;
  std::size_t i = 0, j = 0;
  while (i < users_a.size() && j < users_b.size()) {
    const UserId x = users_a[i];
    const UserId y = users_b[j];
    intersection += x == y;
    i += x <= y;
    j += y <= x;
  }
  const std::size_t unioned = users_a.size() + users_b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(unioned);
}

std::size_t UserIdSets::active_keywords() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.window.size();
  return total;
}

void UserIdSets::Save(BinaryWriter& out) const {
  out.U32(static_cast<std::uint32_t>(kIdSetShards));
  out.U64(window_length_);
  for (const Shard& shard : shards_) {
    out.U32(static_cast<std::uint32_t>(shard.history.size()));
    for (const HistoryEntry& entry : shard.history) {
      out.U64(entry.size());
      for (const auto& [keyword, user] : entry) {
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
      HistoryEntry entry;
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
      shard.history.push_back(std::move(entry));
    }
    if (!in.ok()) break;
    if (!shard.history.empty()) {
      for (const auto& [keyword, user] : shard.history.back()) {
        if (shard.last_quantum_keywords.empty() ||
            shard.last_quantum_keywords.back() != keyword) {
          shard.last_quantum_keywords.push_back(keyword);
        }
        ++shard.last_quantum_support[keyword];
      }
    }
    RefoldWindow(shard);
  }
  if (!in.ok()) {
    reset();
    return false;
  }
  MergeQuantumKeywords();
  return true;
}

}  // namespace scprt::akg
