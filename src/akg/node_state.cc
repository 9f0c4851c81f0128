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
    const bool recently_bursty =
        member.has_last_bursty && member.last_bursty > horizon;
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
    Member updated = member ? members_[row++] : Member{keyword, false, now, 0};
    updated.last_seen = now;
    if (bursty) {
      updated.has_last_bursty = true;
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

namespace {

using Stamps = std::vector<std::pair<KeywordId, QuantumIndex>>;

void WriteStampList(BinaryWriter& out, const Stamps& stamps) {
  out.U64(stamps.size());
  for (const auto& [keyword, stamp] : stamps) {
    out.U32(keyword);
    out.I64(stamp);
  }
}

// Reads one stamp list; its keywords must be strictly ascending.
bool ReadStampList(BinaryReader& in, Stamps& stamps) {
  const std::uint64_t count = in.U64();
  if (!in.CheckLength(count, 12)) return false;
  stamps.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const KeywordId keyword = in.U32();
    const QuantumIndex stamp = in.I64();
    if (!in.ok() || (!stamps.empty() && stamps.back().first >= keyword)) {
      in.Fail();
      return false;
    }
    stamps.emplace_back(keyword, stamp);
  }
  return true;
}

}  // namespace

void NodeStateAutomaton::Save(BinaryWriter& out) const {
  Stamps last_bursty;
  for (const Member& member : members_) {
    if (member.has_last_bursty) {
      last_bursty.emplace_back(member.keyword, member.last_bursty);
    }
  }
  WriteStampList(out, last_bursty);
  out.U64(members_.size());
  for (const Member& member : members_) out.U32(member.keyword);
}

bool NodeStateAutomaton::Restore(BinaryReader& in,
                                 const LastSeenFn& last_seen) {
  members_.clear();
  Stamps last_bursty;
  bool valid = ReadStampList(in, last_bursty);
  const std::uint64_t members = valid ? in.U64() : 0;
  valid = valid && in.CheckLength(members, 4);
  std::size_t bursty_row = 0;
  for (std::uint64_t i = 0; valid && i < members; ++i) {
    const KeywordId keyword = in.U32();
    // Members are strictly ascending, and a last-bursty stamp below this
    // member belongs to no member.
    if (!in.ok() || (!members_.empty() && members_.back().keyword >= keyword) ||
        (bursty_row < last_bursty.size() &&
         last_bursty[bursty_row].first < keyword)) {
      valid = false;
      break;
    }
    // Each member is a window keyword: the eviction sweep reads its
    // last-seen stamp.
    const std::optional<QuantumIndex> seen = last_seen(keyword);
    if (!seen.has_value()) {
      valid = false;
      break;
    }
    Member member{keyword, false, *seen, 0};
    if (bursty_row < last_bursty.size() &&
        last_bursty[bursty_row].first == keyword) {
      member.has_last_bursty = true;
      member.last_bursty = last_bursty[bursty_row++].second;
    }
    members_.push_back(member);
  }
  if (!valid || !in.ok() || bursty_row != last_bursty.size()) {
    members_.clear();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::akg
