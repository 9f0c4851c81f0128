#include "akg/id_sets.h"

#include <algorithm>
#include <cmath>
#include <functional>

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

// Writes the union of the ascending, duplicate-free [a, a_end) and
// [b, b_end) to `out` and returns its end. Branch-free steps: each writes
// the smaller head and moves past it, on both sides when they are equal.
UserId* UnionInto(const UserId* a, const UserId* a_end, const UserId* b,
                  const UserId* b_end, UserId* out) {
  while (a != a_end && b != b_end) {
    const UserId x = *a, y = *b;
    *out++ = x < y ? x : y;
    a += x <= y;
    b += y <= x;
  }
  out = std::copy(a, a_end, out);
  return std::copy(b, b_end, out);
}

}  // namespace

void UserIdSets::MergeWindow(const WindowTable& window,
                             const HistoryEntry& added,
                             const HistoryEntry& expired, WindowTable& out,
                             HistoryEntry& entered, HistoryEntry& left) {
  // Above every keyword and every user: the "no more pairs" key part.
  constexpr std::uint64_t kNone = std::uint64_t{1} << 32;
  // Sized for the worst case (every added pair a new row of a new
  // keyword) and trimmed at the end; the buffer held the table of the
  // quantum before last, so resizing touches only the growth.
  out.users.resize(window.users.size() + added.size());
  out.counts.resize(out.users.size());
  out.directory.resize(window.directory.size() + added.size());
  out.starts.resize(out.directory.size());
  // Every entering pair is an added one and every leaving pair an expired
  // one.
  entered.resize(added.size());
  left.resize(expired.size());
  std::size_t entries = 0, leaves = 0;
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
      const std::uint64_t pair = next_keyword << 32 | user;
      // Not a window row: the pair is added, and enters the window.
      if (count == 0) entered[entries++] = pair;
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
      } else {
        left[leaves++] = pair;
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
  entered.resize(entries);
  left.resize(leaves);
}

void UserIdSets::IngestAggregate(QuantumAggregate aggregate) {
  HistoryEntry& pairs = aggregate.pairs;
  SCPRT_CHECK(std::adjacent_find(pairs.begin(), pairs.end(),
                                 std::greater_equal<std::uint64_t>()) ==
              pairs.end());
  static const HistoryEntry kNothing;
  const bool full = history_.size() == window_length_;
  MergeWindow(window_, pairs, full ? history_.front() : kNothing, next_,
              entered_, left_);
  std::swap(window_, next_);
  if (full) history_.pop_front();
  history_.push_back(std::move(pairs));
}

std::size_t UserIdSets::WindowSupport(KeywordId keyword) const {
  return WindowUsers(keyword).size();
}

std::span<const UserId> UserIdSets::WindowUsers(KeywordId keyword) const {
  const std::vector<KeywordId>& directory = window_.directory;
  const std::size_t run =
      LowerBound(directory.data(), directory.size(), keyword);
  if (run == directory.size() || directory[run] != keyword) return {};
  const std::size_t begin = window_.starts[run];
  return {window_.users.data() + begin, window_.RunEnd(run) - begin};
}

std::size_t UserIdSets::UnionSupport(
    std::span<const std::span<const UserId>> runs) {
  if (runs.empty()) return 0;
  std::size_t total = 0;
  for (const std::span<const UserId> run : runs) total += run.size();
  // The union so far and the buffer the next union is written into, both
  // sized for the disjoint case.
  std::vector<UserId> users(total), merged(total);
  UserId* end = std::copy(runs[0].begin(), runs[0].end(), users.data());
  for (const std::span<const UserId> run : runs.subspan(1)) {
    end = UnionInto(users.data(), end, run.data(), run.data() + run.size(),
                    merged.data());
    users.swap(merged);
  }
  return static_cast<std::size_t>(end - users.data());
}

double UserIdSets::Jaccard(KeywordId a, KeywordId b) const {
  // Every Jaccard is at least 0, so no merge stops early.
  return JaccardAtLeast(a, b, 0.0);
}

double UserIdSets::JaccardAtLeast(KeywordId a, KeywordId b,
                                  double floor) const {
  const std::span<const UserId> users_a = WindowUsers(a);
  const std::span<const UserId> users_b = WindowUsers(b);
  if (users_a.empty() || users_b.empty()) return 0.0;
  const std::size_t na = users_a.size(), nb = users_b.size();
  // The ratio an intersection of `common` users gives. Both counts are
  // exact in a double and the division rounds monotonically, so the
  // computed ratio never falls as `common` rises.
  const auto ratio = [na, nb](std::size_t common) {
    return static_cast<double>(common) /
           static_cast<double>(na + nb - common);
  };
  // need: the least intersection whose computed ratio reaches `floor`, or
  // none = min(na, nb) + 1 when no intersection does (the length filter).
  // The real root of i / (na + nb - i) = floor lands next to it; stepping
  // from there while the computed ratio disagrees makes it exact.
  const std::size_t none = std::min(na, nb) + 1;
  std::size_t need = 0;
  if (floor > 0.0) {
    const double root =
        floor * static_cast<double>(na + nb) / (1.0 + floor);
    need = root < static_cast<double>(none)
               ? static_cast<std::size_t>(std::ceil(root))
               : none;
    while (need > 0 && ratio(need - 1) >= floor) --need;
    while (need < none && ratio(need) < floor) ++need;
  }
  std::size_t intersection = 0;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    // The rows left bound what the intersection can still reach.
    const std::size_t left = std::min(na - i, nb - j);
    const std::size_t reach = intersection + left;
    if (reach < need) return ratio(reach);
    // A merge step lowers the reach by at most one, so it cannot fall
    // below need before the next reach - need + 1 steps are done: those
    // run unchecked, and the merge stops at the first step that drops it.
    for (std::size_t steps = std::min(left, reach - need + 1); steps > 0;
         --steps) {
      const UserId x = users_a[i];
      const UserId y = users_b[j];
      intersection += x == y;
      i += x <= y;
      j += y <= x;
    }
  }
  return ratio(intersection);
}

std::optional<std::size_t> UserIdSets::QuantaSinceSeen(
    KeywordId keyword) const {
  // Newest entry first: most keywords asked about occurred lately.
  const std::uint64_t first = PackPair(keyword, 0);
  for (std::size_t age = 0; age < history_.size(); ++age) {
    const HistoryEntry& entry = history_[history_.size() - 1 - age];
    const auto it = std::lower_bound(entry.begin(), entry.end(), first);
    if (it != entry.end() && PairKeyword(*it) == keyword) return age;
  }
  return std::nullopt;
}

void UserIdSets::Save(BinaryWriter& out) const {
  out.U64(window_length_);
  out.U32(static_cast<std::uint32_t>(history_.size()));
  for (const HistoryEntry& entry : history_) {
    out.U64(entry.size());
    for (std::uint64_t pair : entry) out.U64(pair);
  }
}

bool UserIdSets::Restore(BinaryReader& in) {
  const auto clear = [this] {
    history_.clear();
    window_ = WindowTable{};
    entered_.clear();
    left_.clear();
  };
  clear();
  const std::uint64_t window_length = in.U64();
  const std::uint32_t depth = in.U32();
  // Each entry holds at least its count, so a forged depth fails before
  // the history is sized.
  if (window_length != window_length_ || depth > window_length_ ||
      !in.CheckLength(depth, 8)) {
    in.Fail();
    return false;
  }
  history_.resize(depth);
  std::size_t pairs = 0;
  for (HistoryEntry& entry : history_) {
    const std::uint64_t count = in.U64();
    if (!in.CheckLength(count, 8)) break;
    entry.resize(count);
    for (std::uint64_t& pair : entry) pair = in.U64();
    // Canonical form: strictly ascending, so the pairs are distinct.
    if (std::adjacent_find(entry.begin(), entry.end(),
                           std::greater_equal<std::uint64_t>()) !=
        entry.end()) {
      in.Fail();
      break;
    }
    pairs += count;
  }
  if (!in.ok()) {
    clear();
    return false;
  }

  // Refold the window: every saved pair sorted, so a (keyword, user) run's
  // length is the pair's window count.
  std::vector<std::uint64_t> folded, scratch;
  folded.reserve(pairs);
  for (const HistoryEntry& entry : history_) {
    folded.insert(folded.end(), entry.begin(), entry.end());
  }
  RadixSort(folded, 0, scratch);
  window_.users.reserve(folded.size());
  window_.counts.reserve(folded.size());
  for (std::size_t i = 0; i < folded.size();) {
    std::size_t end = i + 1;
    while (end < folded.size() && folded[end] == folded[i]) ++end;
    const KeywordId keyword = PairKeyword(folded[i]);
    if (window_.directory.empty() || window_.directory.back() != keyword) {
      window_.directory.push_back(keyword);
      window_.starts.push_back(window_.users.size());
    }
    window_.users.push_back(PairUser(folded[i]));
    window_.counts.push_back(static_cast<std::uint32_t>(end - i));
    i = end;
  }
  return true;
}

}  // namespace scprt::akg
