#include "akg/id_sets.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace scprt::akg {

UserIdSets::UserIdSets(std::size_t window_length)
    : window_length_(window_length) {
  SCPRT_CHECK(window_length >= 1);
}

namespace {

// Index of the first of the `n` ascending `keys` not below `key`, by a
// branch-free binary search.
std::size_t LowerBound(const KeywordId* keys, std::size_t n, KeywordId key) {
  if (n == 0) return 0;
  const KeywordId* base = keys;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += base[half] < key ? half : 0;
    n -= half;
  }
  return static_cast<std::size_t>(base - keys) + (*base < key);
}

}  // namespace

void UserIdSets::MergeWindow(const WindowTable& window,
                             const HistoryEntry& added,
                             const HistoryEntry& expired, WindowTable& out) {
  // Above every keyword and every user: the "no more pairs" key part.
  constexpr std::uint64_t kNone = std::uint64_t{1} << 32;
  // Sized for the worst case (every added pair a new row of a new
  // keyword) and trimmed at the end; the buffer held the table of the
  // quantum before last, so resizing touches only the growth.
  out.users.resize(window.users.size() + added.size());
  out.counts.resize(out.users.size());
  out.directory.resize(window.directory.size() + added.size());
  out.starts.resize(out.directory.size());
  const UserId* const in_users = window.users.data();
  const std::uint32_t* const in_counts = window.counts.data();
  const KeywordId* const in_directory = window.directory.data();
  const std::size_t in_runs = window.directory.size();
  UserId* const users = out.users.data();
  std::uint32_t* const counts = out.counts.data();
  std::size_t rows = 0, runs = 0;

  std::size_t a = 0, e = 0, run = 0;
  for (;;) {
    const std::uint64_t next_keyword =
        std::min(a < added.size() ? added[a] >> 32 : kNone,
                 e < expired.size() ? expired[e] >> 32 : kNone);
    // Window runs before the next touched keyword are copied whole.
    const std::size_t first = run;
    const std::size_t begin =
        first < in_runs ? window.starts[first] : window.users.size();
    for (; run < in_runs && in_directory[run] < next_keyword; ++run) {
      out.directory[runs] = in_directory[run];
      out.starts[runs] = rows + (window.starts[run] - begin);
      ++runs;
    }
    if (run > first) {
      const std::size_t end = window.RunEnd(run - 1);
      std::copy(in_users + begin, in_users + end, users + rows);
      std::copy(in_counts + begin, in_counts + end, counts + rows);
      rows += end - begin;
    }
    if (next_keyword == kNone) break;
    const auto keyword = static_cast<KeywordId>(next_keyword);

    // The keyword's window rows (none for a keyword new to the window).
    std::size_t row = 0, row_end = 0;
    if (run < in_runs && in_directory[run] == keyword) {
      row = window.starts[run];
      row_end = window.RunEnd(run);
      ++run;
    }
    const auto next_user = [keyword](const HistoryEntry& pairs,
                                     std::size_t i) {
      return i < pairs.size() && PairKeyword(pairs[i]) == keyword
                 ? std::uint64_t{PairUser(pairs[i])}
                 : kNone;
    };
    const std::size_t run_start = rows;
    for (;;) {
      const std::uint64_t user_added = next_user(added, a);
      const std::uint64_t user_expired = next_user(expired, e);
      const std::uint64_t user = std::min(user_added, user_expired);
      // Rows before the next touched user are copied as they are.
      for (; row < row_end && in_users[row] < user; ++row, ++rows) {
        users[rows] = in_users[row];
        counts[rows] = in_counts[row];
      }
      if (user == kNone) break;
      std::uint32_t count = 0;
      if (row < row_end && in_users[row] == user) {
        count = in_counts[row];
        ++row;
      }
      if (user_added == user) {
        ++count;
        ++a;
      }
      // Expired pairs are window rows, so count was at least one.
      if (user_expired == user) {
        SCPRT_DCHECK(count > 0);
        --count;
        ++e;
      }
      if (count > 0) {
        users[rows] = static_cast<UserId>(user);
        counts[rows] = count;
        ++rows;
      }
    }
    if (rows > run_start) {
      out.directory[runs] = keyword;
      out.starts[runs] = run_start;
      ++runs;
    }
  }
  SCPRT_DCHECK(e == expired.size());
  out.users.resize(rows);
  out.counts.resize(rows);
  out.directory.resize(runs);
  out.starts.resize(runs);
}

void UserIdSets::RefoldWindow(Shard& shard) {
  std::vector<std::uint64_t> keys;
  std::size_t total = 0;
  for (const HistoryEntry& entry : shard.history) total += entry.size();
  keys.reserve(total);
  for (const HistoryEntry& entry : shard.history) {
    keys.insert(keys.end(), entry.begin(), entry.end());
  }
  std::sort(keys.begin(), keys.end());
  WindowTable& window = shard.window;
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t end = i + 1;
    while (end < keys.size() && keys[end] == keys[i]) ++end;
    const KeywordId keyword = PairKeyword(keys[i]);
    if (window.directory.empty() || window.directory.back() != keyword) {
      window.directory.push_back(keyword);
      window.starts.push_back(window.users.size());
    }
    window.users.push_back(PairUser(keys[i]));
    window.counts.push_back(static_cast<std::uint32_t>(end - i));
    i = end;
  }
}

void UserIdSets::IngestAggregate(const QuantumAggregate& aggregate,
                                 const ParallelForFn& parallel_for) {
  // One routing pass up front so each shard merges only its own pairs
  // instead of re-scanning the whole aggregate. Ascending input keeps
  // every shard's history entry (keyword, user)-sorted.
  const std::vector<std::uint64_t>& pairs = aggregate.pairs;
  for (Shard& shard : shards_) shard.incoming.clear();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    SCPRT_CHECK(i == 0 || pairs[i - 1] < pairs[i]);
    shards_[ShardOf(PairKeyword(pairs[i]))].incoming.push_back(pairs[i]);
  }
  const auto ingest_shard = [this](std::size_t s) {
    static const HistoryEntry kNothing;
    Shard& shard = shards_[s];
    const bool full = shard.history.size() == window_length_;
    MergeWindow(shard.window, shard.incoming,
                full ? shard.history.front() : kNothing, shard.next);
    std::swap(shard.window, shard.next);
    HistoryEntry recycled;
    if (full) {
      recycled = std::move(shard.history.front());
      shard.history.pop_front();
    }
    shard.history.push_back(std::move(shard.incoming));
    // The expired entry's buffer takes the next quantum's pairs.
    shard.incoming = std::move(recycled);
  };
  if (parallel_for) {
    parallel_for(kIdSetShards, ingest_shard);
  } else {
    SerialFor(kIdSetShards, ingest_shard);
  }
}

std::size_t UserIdSets::WindowSupport(KeywordId keyword) const {
  return WindowUsers(keyword).size();
}

std::span<const UserId> UserIdSets::WindowUsers(KeywordId keyword) const {
  const WindowTable& table = shards_[ShardOf(keyword)].window;
  const std::size_t run =
      LowerBound(table.directory.data(), table.directory.size(), keyword);
  if (run == table.directory.size() || table.directory[run] != keyword) {
    return {};
  }
  const std::size_t begin = table.starts[run];
  return {table.users.data() + begin, table.RunEnd(run) - begin};
}

std::size_t UserIdSets::UnionSupport(
    const std::vector<KeywordId>& keywords) const {
  std::vector<UserId> users, merged;
  for (KeywordId keyword : keywords) {
    const std::span<const UserId> window = WindowUsers(keyword);
    merged.clear();
    std::set_union(users.begin(), users.end(), window.begin(), window.end(),
                   std::back_inserter(merged));
    users.swap(merged);
  }
  return users.size();
}

double UserIdSets::Jaccard(KeywordId a, KeywordId b) const {
  const std::span<const UserId> users_a = WindowUsers(a);
  const std::span<const UserId> users_b = WindowUsers(b);
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
  for (const Shard& shard : shards_) total += shard.window.directory.size();
  return total;
}

void UserIdSets::Save(BinaryWriter& out) const {
  out.U32(static_cast<std::uint32_t>(kIdSetShards));
  out.U64(window_length_);
  for (const Shard& shard : shards_) {
    out.U32(static_cast<std::uint32_t>(shard.history.size()));
    for (const HistoryEntry& entry : shard.history) {
      out.U64(entry.size());
      for (std::uint64_t pair : entry) {
        out.U32(PairKeyword(pair));
        out.U32(PairUser(pair));
      }
    }
  }
}

bool UserIdSets::Restore(BinaryReader& in) {
  const auto reset = [this] { shards_.assign(kIdSetShards, Shard{}); };
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
        const std::uint64_t pair = PackPair(keyword, user);
        if (ShardOf(keyword) != s || (!entry.empty() && entry.back() >= pair)) {
          in.Fail();
          break;
        }
        entry.push_back(pair);
      }
      if (!in.ok()) break;
      shard.history.push_back(std::move(entry));
    }
    if (!in.ok()) break;
    RefoldWindow(shard);
  }
  if (!in.ok()) {
    reset();
    return false;
  }
  return true;
}

}  // namespace scprt::akg
