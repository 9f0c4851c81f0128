#include "store/event_indexer.h"

namespace scprt::store {

EventIndexer::EventIndexer(LshIndex* index, std::uint32_t commit_every)
    : index_(index), commit_every_(commit_every) {}

void EventIndexer::OnCluster(const detect::ReportedCluster& cluster) {
  if (!last_error_.ok()) return;  // latched: drop until the caller clears
  const detect::EventSnapshot& snap = cluster.snapshot;
  std::vector<std::string> keywords;
  if (cluster.spellings.size() == snap.keywords.size()) {
    keywords = cluster.spellings;
  }
  // Fill gaps (no dictionary, or an id past it) with a stable placeholder
  // so the signature still keys off the full member set.
  keywords.resize(snap.keywords.size());
  for (std::size_t i = 0; i < keywords.size(); ++i) {
    if (keywords[i].empty()) {
      keywords[i] = '#' + std::to_string(snap.keywords[i]);
    }
  }
  durability::Error error = index_->Insert(
      snap.cluster_id, snap.quantum, snap.born_at, snap.rank,
      snap.support, keywords, cluster.user_sketch, cluster.sketch_p);
  if (!error.ok()) {
    last_error_ = std::move(error);
    return;
  }
  ++indexed_;
  ++pending_;
  if (commit_every_ > 0 && pending_ >= commit_every_) {
    if (durability::Error e = index_->Commit(); !e.ok()) {
      last_error_ = std::move(e);
      return;
    }
    pending_ = 0;
  }
}

durability::Error EventIndexer::Flush() {
  if (!last_error_.ok()) return last_error_;
  if (pending_ == 0) return {};
  durability::Error error = index_->Commit();
  if (error.ok()) {
    pending_ = 0;
  } else {
    last_error_ = error;
  }
  return error;
}

}  // namespace scprt::store
