// The manifest: the commit point of a WAL generation.
//
// A WAL directory holds numbered, immutable files — full-snapshot segments
// (`seg-NNNNNN.snap`, a standard snapshot_io full frame), logs
// (`wal-NNNNNN.log`), and manifests (`MANIFEST-NNNNNN`) — all drawing from
// one monotonic file-number sequence. A manifest names the one segment and
// the one log that together are a complete recovery recipe; `CURRENT` is a
// one-line text file naming the manifest in force, republished by atomic
// rename. Recovery trusts CURRENT first and falls back to the newest
// manifest that decodes when CURRENT is missing, damaged or stale
// (pointing at a manifest that was itself lost) — see docs/formats.md.
//
// A manifest file is one CRC-framed record:
//
//   offset  size  field
//   0       8     magic "SCPRTMAN"
//   8       4     format version (little-endian u32; currently 1)
//   12      8     payload length (u64)
//   20      4     CRC-32 (IEEE) of the payload
//   24      ...   payload (see Manifest fields)

#ifndef SCPRT_DURABILITY_MANIFEST_H_
#define SCPRT_DURABILITY_MANIFEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "durability/error.h"

namespace scprt::durability {

inline constexpr char kManifestMagic[8] = {'S', 'C', 'P', 'R',
                                           'T', 'M', 'A', 'N'};
inline constexpr std::uint32_t kManifestVersion = 1;

/// One durable generation: which segment to load, which log to replay.
struct Manifest {
  /// Number of this manifest file (from its name; not in the payload).
  std::uint64_t manifest_number = 0;
  /// The full-snapshot segment recovery restores first.
  std::uint64_t segment_number = 0;
  /// The log whose records replay on top of the segment.
  std::uint64_t wal_number = 0;
  /// Checkpoint id (payload CRC) of the segment; every record in the log
  /// chains to it, so a log paired with the wrong segment is rejected.
  std::uint64_t base_checkpoint_id = 0;
  /// File-number watermark: a restarted session allocates from here.
  std::uint64_t next_file_number = 0;
  /// Engine clock at the segment fence (validation aid for replay).
  std::int64_t next_quantum = 0;
};

/// File-name codecs. Parse functions require the whole name to match.
std::string SegmentFileName(std::uint64_t number);
std::string WalFileName(std::uint64_t number);
std::string ManifestFileName(std::uint64_t number);
/// Event-store index page file (`idx-NNNNNN.pages`, src/store/). Drawn from
/// the same number sequence so a durability directory stays collision-free;
/// GC never sweeps this kind (the store owns its lifecycle).
std::string IndexFileName(std::uint64_t number);
bool ParseSegmentFileName(const std::string& name, std::uint64_t& number);
bool ParseWalFileName(const std::string& name, std::uint64_t& number);
bool ParseManifestFileName(const std::string& name, std::uint64_t& number);
bool ParseIndexFileName(const std::string& name, std::uint64_t& number);

/// Serializes / parses the framed manifest record. Decode verifies magic,
/// version and CRC before reading a payload byte.
std::string EncodeManifest(const Manifest& manifest);
bool DecodeManifest(const std::string& bytes, Manifest& manifest,
                    Error* error = nullptr);

/// Publishes a generation: writes MANIFEST-NNNNNN (tmp + rename), then
/// repoints CURRENT at it (tmp + rename — the commit point). `sync` per
/// the backend's fsync level.
Error PublishManifest(const std::string& directory, const Manifest& manifest,
                      bool sync);

/// Reads CURRENT. Returns the manifest number it names, or nullopt when
/// CURRENT is missing or malformed.
std::optional<std::uint64_t> ReadCurrent(const std::string& directory);

/// Loads the manifest in force: the one CURRENT names if it decodes, else
/// the newest numbered manifest that decodes (the stale-CURRENT fallback).
/// Returns nullopt with ErrorCode::kNoManifest when the directory has no
/// decodable manifest at all; `detail` (appended to) records every file
/// tried and why it was skipped.
std::optional<Manifest> LoadCurrentManifest(const std::string& directory,
                                            Error* error = nullptr,
                                            std::string* detail = nullptr);

/// Every durability file in the directory, as (number, filename) pairs per
/// kind — the GC and recovery scan.
struct DirectoryListing {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  std::vector<std::pair<std::uint64_t, std::string>> wals;
  std::vector<std::pair<std::uint64_t, std::string>> manifests;
  /// Event-store index files. Listed so recovery can see them; the GC
  /// sweeps only segments/wals/manifests, never indexes.
  std::vector<std::pair<std::uint64_t, std::string>> indexes;
  /// Checkpoint files of the retired snapshot backend (`full-NNNNNN.ckpt`,
  /// `delta-NNNNNN.ckpt`). Never written or swept; listed so recovery can
  /// refuse a directory that holds only these instead of silently
  /// starting fresh over them.
  std::vector<std::pair<std::uint64_t, std::string>> legacy_checkpoints;
};
DirectoryListing ListDurabilityFiles(const std::string& directory);

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_MANIFEST_H_
