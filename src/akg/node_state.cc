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
    QuantumIndex now, const QuantumKeywords& quantum_keywords,
    const std::function<bool(KeywordId)>& in_cluster) {
  SCPRT_DCHECK(std::adjacent_find(quantum_keywords.begin(),
                                  quantum_keywords.end(),
                                  [](const auto& a, const auto& b) {
                                    return a.first >= b.first;
                                  }) == quantum_keywords.end());
  const QuantumIndex horizon = now - static_cast<QuantumIndex>(window_length_);
  NodeStateUpdate update;
  MergeMembers(now, horizon, quantum_keywords, in_cluster, update);
  MergeSeen(now, horizon, quantum_keywords);
  return update;
}

void NodeStateAutomaton::MergeSeen(QuantumIndex now, QuantumIndex horizon,
                                   const QuantumKeywords& quantum_keywords) {
  const std::size_t rows = seen_keywords_.size();
  next_seen_keywords_.resize(rows + quantum_keywords.size());
  next_seen_stamps_.resize(rows + quantum_keywords.size());
  const KeywordId* const in_keywords = seen_keywords_.data();
  const QuantumIndex* const in_stamps = seen_stamps_.data();
  KeywordId* const out_keywords = next_seen_keywords_.data();
  QuantumIndex* const out_stamps = next_seen_stamps_.data();
  std::size_t out = 0;
  // Copies an untouched row, keeping it only if seen after the horizon
  // (written unconditionally, kept by advancing `out`).
  const auto keep_if_fresh = [&](std::size_t row) {
    out_keywords[out] = in_keywords[row];
    out_stamps[out] = in_stamps[row];
    out += in_stamps[row] > horizon ? 1 : 0;
  };
  std::size_t row = 0;
  for (const auto& [keyword, users] : quantum_keywords) {
    for (; row < rows && in_keywords[row] < keyword; ++row) {
      keep_if_fresh(row);
    }
    if (row < rows && in_keywords[row] == keyword) ++row;
    out_keywords[out] = keyword;
    out_stamps[out] = now;
    ++out;
  }
  for (; row < rows; ++row) keep_if_fresh(row);
  next_seen_keywords_.resize(out);
  next_seen_stamps_.resize(out);
  seen_keywords_.swap(next_seen_keywords_);
  seen_stamps_.swap(next_seen_stamps_);
}

void NodeStateAutomaton::MergeMembers(
    QuantumIndex now, QuantumIndex horizon,
    const QuantumKeywords& quantum_keywords,
    const std::function<bool(KeywordId)>& in_cluster,
    NodeStateUpdate& update) {
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
      if (!member) update.entered.push_back(keyword);
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

void NodeStateAutomaton::Clear() {
  seen_keywords_.clear();
  seen_stamps_.clear();
  members_.clear();
}

namespace {

// Reads one stamp list; its keywords must be strictly ascending.
bool ReadStampList(BinaryReader& in, std::vector<KeywordId>& keywords,
                   std::vector<QuantumIndex>& stamps) {
  const std::uint64_t count = in.U64();
  if (!in.CheckLength(count, 12)) return false;
  keywords.reserve(count);
  stamps.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const KeywordId keyword = in.U32();
    const QuantumIndex stamp = in.I64();
    if (!in.ok() || (!keywords.empty() && keywords.back() >= keyword)) {
      in.Fail();
      return false;
    }
    keywords.push_back(keyword);
    stamps.push_back(stamp);
  }
  return true;
}

}  // namespace

void NodeStateAutomaton::Save(BinaryWriter& out) const {
  out.U64(seen_keywords_.size());
  for (std::size_t i = 0; i < seen_keywords_.size(); ++i) {
    out.U32(seen_keywords_[i]);
    out.I64(seen_stamps_[i]);
  }
  out.U64(static_cast<std::uint64_t>(
      std::count_if(members_.begin(), members_.end(),
                    [](const Member& m) { return m.has_last_bursty; })));
  for (const Member& member : members_) {
    if (!member.has_last_bursty) continue;
    out.U32(member.keyword);
    out.I64(member.last_bursty);
  }
  out.U64(members_.size());
  for (const Member& member : members_) out.U32(member.keyword);
}

bool NodeStateAutomaton::Restore(BinaryReader& in) {
  Clear();
  std::vector<KeywordId> bursty_keywords;
  std::vector<QuantumIndex> bursty_stamps;
  bool valid = ReadStampList(in, seen_keywords_, seen_stamps_) &&
               ReadStampList(in, bursty_keywords, bursty_stamps);
  const std::uint64_t members = valid ? in.U64() : 0;
  valid = valid && in.CheckLength(members, 4);
  std::size_t seen_row = 0;
  std::size_t bursty_row = 0;
  for (std::uint64_t i = 0; valid && i < members; ++i) {
    const KeywordId keyword = in.U32();
    while (seen_row < seen_keywords_.size() &&
           seen_keywords_[seen_row] < keyword) {
      ++seen_row;
    }
    // Members are strictly ascending, each carries a last-seen stamp (the
    // eviction sweep reads it), and a last-bursty stamp below this member
    // belongs to no member.
    if (!in.ok() || (!members_.empty() && members_.back().keyword >= keyword) ||
        seen_row == seen_keywords_.size() ||
        seen_keywords_[seen_row] != keyword ||
        (bursty_row < bursty_keywords.size() &&
         bursty_keywords[bursty_row] < keyword)) {
      valid = false;
      break;
    }
    Member member{keyword, false, seen_stamps_[seen_row], 0};
    if (bursty_row < bursty_keywords.size() &&
        bursty_keywords[bursty_row] == keyword) {
      member.has_last_bursty = true;
      member.last_bursty = bursty_stamps[bursty_row++];
    }
    members_.push_back(member);
  }
  if (!valid || !in.ok() || bursty_row != bursty_keywords.size()) {
    Clear();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::akg
