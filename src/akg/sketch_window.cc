#include "akg/sketch_window.h"

#include <algorithm>

#include "common/check.h"

namespace scprt::akg {

SketchWindow::SketchWindow(std::size_t window_length, std::size_t p,
                           std::uint64_t seed)
    : window_length_(window_length), hasher_(p, seed) {
  SCPRT_CHECK(window_length >= 1);
}

void SketchWindow::Ingest(const QuantumAggregate& aggregate,
                          const ParallelForFn& parallel_for) {
  // One routing pass up front, mirroring UserIdSets::IngestAggregate; the
  // aggregate is keyword-ascending, so each shard's owned indices — and
  // with them its slot — stay keyword-ascending too.
  std::vector<std::vector<std::uint32_t>> owned(kShards);
  for (std::uint32_t i = 0; i < aggregate.keywords.size(); ++i) {
    owned[ShardOf(aggregate.keywords[i].keyword)].push_back(i);
  }
  const auto sketch_shard = [&](std::size_t s) {
    Shard& shard = shards_[s];
    Slot slot;
    slot.reserve(owned[s].size());
    for (std::uint32_t i : owned[s]) {
      const QuantumAggregate::Entry& entry = aggregate.keywords[i];
      slot.emplace_back(entry.keyword, hasher_.QuantumSketch(entry.users));
    }
    shard.ring.push_back(std::move(slot));
    if (shard.ring.size() > window_length_) shard.ring.pop_front();
  };
  if (parallel_for) {
    parallel_for(kShards, sketch_shard);
  } else {
    SerialFor(kShards, sketch_shard);
  }
}

MinHashSignature SketchWindow::WindowSketch(KeywordId keyword) const {
  const Shard& shard = shards_[ShardOf(keyword)];
  std::vector<MinHashSignature> parts;
  parts.reserve(shard.ring.size());
  for (const Slot& slot : shard.ring) {
    const auto it = std::lower_bound(
        slot.begin(), slot.end(), keyword,
        [](const auto& entry, KeywordId k) { return entry.first < k; });
    if (it != slot.end() && it->first == keyword) parts.push_back(it->second);
  }
  return MinHasher::CombineTree(std::move(parts), hasher_.p());
}

void SketchWindow::Clear() { shards_.assign(kShards, Shard{}); }

void SketchWindow::RebuildFromHistory(const UserIdSets& sets) {
  Clear();
  const std::size_t depth = sets.HistoryDepth();
  for (Shard& shard : shards_) shard.ring.resize(depth);
  sets.VisitHistory([&](std::size_t s, std::size_t slot_index,
                        const std::vector<std::pair<KeywordId, UserId>>&
                            pairs) {
    // Sort a copy so keyword runs are contiguous (history order is only
    // canonical after a restore; don't depend on it).
    std::vector<std::pair<KeywordId, UserId>> sorted = pairs;
    std::sort(sorted.begin(), sorted.end());
    Slot& slot = shards_[s].ring[slot_index];
    std::vector<UserId> users;
    for (std::size_t i = 0; i < sorted.size();) {
      const KeywordId keyword = sorted[i].first;
      users.clear();
      while (i < sorted.size() && sorted[i].first == keyword) {
        users.push_back(sorted[i].second);
        ++i;
      }
      slot.emplace_back(keyword, hasher_.QuantumSketch(users));
    }
  });
}

}  // namespace scprt::akg
