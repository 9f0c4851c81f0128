#include "akg/node_state.h"

#include <algorithm>

#include "common/check.h"

namespace scprt::akg {

NodeStateAutomaton::NodeStateAutomaton(std::uint32_t high_threshold,
                                       std::size_t window_length)
    : high_threshold_(high_threshold), window_length_(window_length) {
  SCPRT_CHECK(high_threshold >= 1);
  SCPRT_CHECK(window_length >= 1);
}

NodeStateUpdate NodeStateAutomaton::ProcessQuantum(
    QuantumIndex now,
    const std::vector<std::pair<KeywordId, std::uint32_t>>& quantum_keywords,
    const std::function<bool(KeywordId)>& in_cluster) {
  SCPRT_DCHECK(std::adjacent_find(quantum_keywords.begin(),
                                  quantum_keywords.end(),
                                  [](const auto& a, const auto& b) {
                                    return a.first >= b.first;
                                  }) == quantum_keywords.end());
  const QuantumIndex horizon = now - static_cast<QuantumIndex>(window_length_);
  NodeStateUpdate update;
  next_members_.clear();
  // The eviction sweep (the AKG is small; Section 7.4 measures < 5% of
  // keywords bursty). A member goes when it is
  //   stale:    no occurrence in the last w quanta, or
  //   faded:    not bursty in the last w quanta and in no cluster.
  const auto sweep = [&](const Member& member) {
    const bool stale = member.last_seen <= horizon;
    const bool recently_bursty = member.last_bursty > horizon;
    if (stale || (!recently_bursty && !in_cluster(member.keyword))) {
      update.removed.push_back(member.keyword);
    } else {
      next_members_.push_back(member);
    }
  };
  const std::size_t rows = members_.size();
  std::size_t row = 0;
  for (const auto& [keyword, users] : quantum_keywords) {
    for (; row < rows && members_[row].keyword < keyword; ++row) {
      sweep(members_[row]);
    }
    const bool member = row < rows && members_[row].keyword == keyword;
    const bool bursty = users >= high_threshold_;
    if (!member && !bursty) continue;
    // Only a bursty keyword is admitted, so every member has a stamp.
    Member updated = member ? members_[row++] : Member{keyword, now, now};
    updated.last_seen = now;
    if (bursty) {
      updated.last_bursty = now;
      update.bursty.push_back(keyword);
    } else {
      update.seen_in_akg.push_back(keyword);
    }
    sweep(updated);
  }
  for (; row < rows; ++row) sweep(members_[row]);
  members_.swap(next_members_);
  return update;
}

bool NodeStateAutomaton::InAkg(KeywordId keyword) const {
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), keyword,
      [](const Member& member, KeywordId k) { return member.keyword < k; });
  return it != members_.end() && it->keyword == keyword;
}

std::vector<KeywordId> NodeStateAutomaton::Members() const {
  std::vector<KeywordId> keywords;
  keywords.reserve(members_.size());
  for (const Member& member : members_) keywords.push_back(member.keyword);
  return keywords;
}

void NodeStateAutomaton::Save(BinaryWriter& out) const {
  out.U64(members_.size());
  for (const Member& member : members_) {
    out.U32(member.keyword);
    out.I64(member.last_bursty);
  }
}

bool NodeStateAutomaton::Restore(BinaryReader& in,
                                 const LastSeenFn& last_seen) {
  members_.clear();
  const std::uint64_t members = in.U64();
  bool valid = in.CheckLength(members, 4 + 8);
  for (std::uint64_t i = 0; valid && i < members; ++i) {
    const KeywordId keyword = in.U32();
    const QuantumIndex last_bursty = in.I64();
    // Members are strictly ascending, and each is a window keyword: the
    // eviction sweep reads its last-seen stamp.
    const std::optional<QuantumIndex> seen =
        in.ok() ? last_seen(keyword) : std::nullopt;
    if (!seen.has_value() ||
        (!members_.empty() && members_.back().keyword >= keyword)) {
      valid = false;
      break;
    }
    members_.push_back(Member{keyword, *seen, last_bursty});
  }
  if (!valid || !in.ok()) {
    members_.clear();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::akg
