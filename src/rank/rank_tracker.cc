#include "rank/rank_tracker.h"

#include <algorithm>

namespace scprt::rank {

void RankTracker::Observe(ClusterId id, const RankObservation& obs) {
  auto& h = history_[id];
  h.push_back(obs);
  if (h.size() > kMaxHistory) h.pop_front();
}

bool RankTracker::IsLikelySpurious(ClusterId id) const {
  auto it = history_.find(id);
  if (it == history_.end()) return false;
  const auto& h = it->second;
  if (h.size() < kMinObservations) return false;
  bool grew = false;
  bool rank_rose = false;
  for (std::size_t i = 1; i < h.size(); ++i) {
    if (h[i].node_count > h.front().node_count) grew = true;
    if (h[i].rank > h[i - 1].rank) rank_rose = true;
  }
  return !grew && !rank_rose;
}

void RankTracker::Forget(ClusterId id) { history_.erase(id); }

std::vector<ClusterId> RankTracker::TrackedIds() const {
  std::vector<ClusterId> ids;
  ids.reserve(history_.size());
  for (const auto& [id, _] : history_) ids.push_back(id);
  return ids;
}

const std::deque<RankObservation>* RankTracker::HistoryOf(
    ClusterId id) const {
  auto it = history_.find(id);
  return it == history_.end() ? nullptr : &it->second;
}

void RankTracker::Save(BinaryWriter& out) const {
  std::vector<ClusterId> ids = TrackedIds();
  std::sort(ids.begin(), ids.end());
  out.U64(ids.size());
  for (ClusterId id : ids) {
    const std::deque<RankObservation>& h = history_.at(id);
    out.U64(id);
    out.U32(static_cast<std::uint32_t>(h.size()));
    for (const RankObservation& obs : h) {
      out.I64(obs.quantum);
      out.F64(obs.rank);
      out.U32(obs.node_count);
    }
  }
}

bool RankTracker::Restore(BinaryReader& in) {
  history_.clear();
  const std::uint64_t count = in.U64();
  bool valid = in.CheckLength(count, 8 + 4 + 20);
  for (std::uint64_t i = 0; valid && i < count; ++i) {
    const ClusterId id = in.U64();
    const std::uint32_t length = in.U32();
    // The ring never grows beyond kMaxHistory, and an empty history is
    // erased eagerly by Forget.
    if (length == 0 || length > kMaxHistory ||
        !in.CheckLength(length, 20) || history_.count(id) != 0) {
      valid = false;
      break;
    }
    std::deque<RankObservation>& h = history_[id];
    for (std::uint32_t j = 0; j < length; ++j) {
      RankObservation obs;
      obs.quantum = in.I64();
      obs.rank = in.F64();
      obs.node_count = in.U32();
      h.push_back(obs);
    }
    if (!in.ok()) valid = false;
  }
  if (!valid || !in.ok()) {
    history_.clear();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::rank
