#include "detect/postprocess.h"

#include <algorithm>
#include <cstdlib>

#include "common/union_find.h"

namespace scprt::detect {

namespace {

// Story correlation thresholds (see CorrelateEvents in the header).
constexpr double kStoryKeywordJaccard = 0.25;
constexpr std::int64_t kStoryMaxBirthGap = 8;

// Jaccard of two sorted keyword vectors.
double KeywordJaccard(const std::vector<KeywordId>& a,
                      const std::vector<KeywordId>& b) {
  if (a.empty() || b.empty()) return 0.0;
  std::size_t i = 0, j = 0, both = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++both;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(both) /
         static_cast<double>(a.size() + b.size() - both);
}

}  // namespace

std::vector<Story> CorrelateEvents(const std::vector<EventSnapshot>& events) {
  UnionFind uf(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (std::llabs(static_cast<long long>(events[i].born_at) -
                     static_cast<long long>(events[j].born_at)) >
          kStoryMaxBirthGap) {
        continue;
      }
      if (KeywordJaccard(events[i].keywords, events[j].keywords) >=
          kStoryKeywordJaccard) {
        uf.Union(i, j);
      }
    }
  }
  std::unordered_map<std::size_t, Story> groups;
  for (std::size_t i = 0; i < events.size(); ++i) {
    Story& story = groups[uf.Find(i)];
    story.members.push_back(i);
    story.rank = std::max(story.rank, events[i].rank);
  }
  std::vector<Story> stories;
  stories.reserve(groups.size());
  for (auto& [_, story] : groups) {
    std::sort(story.members.begin(), story.members.end(),
              [&](std::size_t a, std::size_t b) {
                if (events[a].rank != events[b].rank) {
                  return events[a].rank > events[b].rank;
                }
                return a < b;
              });
    stories.push_back(std::move(story));
  }
  std::sort(stories.begin(), stories.end(), [](const Story& a, const Story& b) {
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.members < b.members;
  });
  return stories;
}

std::vector<std::size_t> SpuriousSuppressor::Filter(
    const std::vector<EventSnapshot>& events) {
  std::vector<std::size_t> shown;
  shown.reserve(events.size());
  std::unordered_map<ClusterId, int> next;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventSnapshot& e = events[i];
    int streak = 0;
    if (e.likely_spurious) {
      auto it = consecutive_.find(e.cluster_id);
      streak = (it == consecutive_.end() ? 0 : it->second) + 1;
    }
    next[e.cluster_id] = streak;
    if (streak < kPatience) shown.push_back(i);
  }
  consecutive_ = std::move(next);  // events gone from the feed are dropped
  return shown;
}

std::size_t SpuriousSuppressor::suppressed_count() const {
  std::size_t n = 0;
  for (const auto& [_, streak] : consecutive_) {
    if (streak >= kPatience) ++n;
  }
  return n;
}

void SpuriousSuppressor::Save(BinaryWriter& out) const {
  std::vector<std::pair<ClusterId, int>> sorted(consecutive_.begin(),
                                                consecutive_.end());
  std::sort(sorted.begin(), sorted.end());
  out.U64(sorted.size());
  for (const auto& [id, streak] : sorted) {
    out.U64(id);
    out.U32(static_cast<std::uint32_t>(streak));
  }
}

bool SpuriousSuppressor::Restore(BinaryReader& in) {
  consecutive_.clear();
  const std::uint64_t count = in.U64();
  bool valid = in.CheckLength(count, 12);
  for (std::uint64_t i = 0; valid && i < count; ++i) {
    const ClusterId id = in.U64();
    const std::uint32_t streak = in.U32();
    if (!in.ok() || streak > (1u << 30) ||
        !consecutive_.emplace(id, static_cast<int>(streak)).second) {
      valid = false;
    }
  }
  if (!valid || !in.ok()) {
    consecutive_.clear();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::detect
