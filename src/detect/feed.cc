#include "detect/feed.h"

#include <algorithm>

namespace scprt::detect {

namespace {

double SortedJaccard(const std::vector<KeywordId>& a,
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

bool EventFeed::IsDuplicate(const std::vector<KeywordId>& keywords,
                            QuantumIndex now) const {
  for (const DeliveredMemo& memo : delivered_) {
    if (now - memo.quantum > kDedupeHorizon) continue;
    if (SortedJaccard(keywords, memo.keywords) >= kDedupeJaccard) {
      return true;
    }
  }
  return false;
}

std::vector<FeedItem> EventFeed::Consume(const QuantumReport& report) {
  // 1. Spurious suppression.
  std::vector<EventSnapshot> kept;
  for (std::size_t i : suppressor_.Filter(report.events)) {
    kept.push_back(report.events[i]);
  }

  // 2. Story grouping.
  const std::vector<Story> stories = CorrelateEvents(kept);

  // 3. Deliver stories whose lead is fresh (not a near-duplicate of an
  //    already delivered item).
  std::vector<FeedItem> items;
  for (const Story& story : stories) {
    const EventSnapshot& lead = kept[story.members.front()];
    // Only stories containing a newly reported cluster can be new.
    bool any_new = false;
    for (std::size_t m : story.members) any_new |= kept[m].newly_reported;
    if (!any_new) continue;
    if (IsDuplicate(lead.keywords, report.quantum)) continue;

    FeedItem item;
    item.quantum = report.quantum;
    item.lead = lead;
    for (std::size_t m = 1; m < story.members.size(); ++m) {
      item.related.push_back(kept[story.members[m]]);
    }
    delivered_.push_back(DeliveredMemo{lead.keywords, report.quantum});
    if (delivered_.size() > kDedupeMemory) delivered_.pop_front();
    ++delivered_count_;
    items.push_back(std::move(item));
  }
  return items;
}

void EventFeed::Save(BinaryWriter& out) const {
  suppressor_.Save(out);
  out.U64(delivered_count_);
  out.U64(delivered_.size());
  for (const DeliveredMemo& memo : delivered_) {  // delivery order
    out.I64(memo.quantum);
    out.U64(memo.keywords.size());
    for (KeywordId keyword : memo.keywords) out.U32(keyword);
  }
}

bool EventFeed::Restore(BinaryReader& in) {
  const auto reset = [this] {
    suppressor_ = SpuriousSuppressor();
    delivered_.clear();
    delivered_count_ = 0;
  };
  reset();
  if (!suppressor_.Restore(in)) return false;
  delivered_count_ = in.U64();
  const std::uint64_t memos = in.U64();
  bool valid = in.CheckLength(memos, 8 + 8) &&
               memos <= kDedupeMemory;
  for (std::uint64_t i = 0; valid && i < memos; ++i) {
    DeliveredMemo memo;
    memo.quantum = in.I64();
    const std::uint64_t keywords = in.U64();
    if (!in.CheckLength(keywords, 4)) {
      valid = false;
      break;
    }
    memo.keywords.reserve(keywords);
    for (std::uint64_t j = 0; j < keywords; ++j) {
      memo.keywords.push_back(in.U32());
    }
    // Dedupe compares sorted keyword vectors.
    if (!in.ok() ||
        !std::is_sorted(memo.keywords.begin(), memo.keywords.end())) {
      valid = false;
      break;
    }
    delivered_.push_back(std::move(memo));
  }
  if (!valid || !in.ok()) {
    reset();
    in.Fail();
    return false;
  }
  return true;
}

}  // namespace scprt::detect
