// Names of the numbered files in a durability directory, and the
// directory scan over them.
//
// A WAL directory holds immutable files drawing from one monotonic
// file-number sequence: full-snapshot segments (`seg-NNNNNN.snap`, a
// standard snapshot_io full frame) and logs (`wal-NNNNNN.log`). Segment N's
// log is `wal-(N+1).log`; the atomically renamed segment is the commit
// point of its generation (see wal_backend.h and docs/formats.md). The
// event store's page files (`idx-NNNNNN.pages`) share the naming scheme.

#ifndef SCPRT_DURABILITY_FILE_NAMES_H_
#define SCPRT_DURABILITY_FILE_NAMES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace scprt::durability {

/// File-name codecs. Parse functions require the whole name to match.
std::string SegmentFileName(std::uint64_t number);
std::string WalFileName(std::uint64_t number);
/// Event-store index page file (`idx-NNNNNN.pages`, src/store/). GC never
/// sweeps this kind (the store owns its lifecycle).
std::string IndexFileName(std::uint64_t number);
bool ParseSegmentFileName(const std::string& name, std::uint64_t& number);
bool ParseWalFileName(const std::string& name, std::uint64_t& number);

/// Every durability file in the directory, as (number, filename) pairs per
/// kind in ascending number order — the GC and recovery scan. Files of
/// other names (event-store page files, and older builds' `MANIFEST-*`
/// and `CURRENT` among them) are not listed, so GC never sweeps them.
struct DirectoryListing {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  std::vector<std::pair<std::uint64_t, std::string>> wals;
  /// Checkpoint files of the retired snapshot backend (`full-NNNNNN.ckpt`,
  /// `delta-NNNNNN.ckpt`). Never written or swept; listed so recovery can
  /// refuse a directory that holds only these instead of silently
  /// starting fresh over them.
  std::vector<std::pair<std::uint64_t, std::string>> legacy_checkpoints;
};
DirectoryListing ListDurabilityFiles(const std::string& directory);

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_FILE_NAMES_H_
