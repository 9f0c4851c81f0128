// The versioned binary container for native structural checkpoints.
//
// A snapshot (a WAL segment, or a bare SaveSnapshot stream) is one frame:
//
//   offset  size  field
//   0       8     magic "SCPRTSNP"
//   8       4     format version (little-endian u32; currently 6)
//   12      1     kind: always 1 (2 was the retired delta file; any
//                 other value is rejected as a kind mismatch)
//   13      8     payload length in bytes (u64)
//   21      4     CRC-32 (IEEE) of the payload bytes
//   25      ...   payload
//
// The CRC is verified before any payload byte is parsed, so truncated or
// bit-flipped files are rejected up front; the payload parser is
// additionally bounds-checked end to end (see common/binary_io.h), so even
// a corrupt payload with a forged CRC cannot crash or over-allocate.
//
// Full payload:  [config section][detector state section][IngestState?] —
// the state section is EventDetector::SaveState's canonical encoding of
// the generating state, each fact once: the quantizer clock (the only
// clock) + partial quantum, the AKG layer (whose edge list is also the
// maintainer's graph), the clusters with their ids, the rank histories
// and the first-report set. No statistics counter is saved.
//
// Message lists and the IngestState section are also the building blocks
// of every WAL record, whose payload codec durability/wal_record.h owns.
//
// IngestState is an optional trailing section with its own magic /
// section version / length / CRC framing: the ingest frontend's side of a
// live deployment — the keyword dictionary, admission seeds, the source
// cursor to resume reading from, and the stream counters. A bare detector
// save has none and restores a bare detector.
//
// Versioning policy and skew rules (the full table is docs/formats.md):
// the container version bumps on ANY encoding change, and loaders accept
// exactly one version. Version 6 writes each fact once (akg/akg_builder.h);
// every other version, older or newer, is rejected as kVersionSkew —
// checkpoints are recovery artifacts, not archives, so there is no
// migration: take a fresh full snapshot after upgrading.
//
// Loaders report why a load failed as a durability::ErrorCode, the one
// error enum of the persistence tier; the codes are never written to disk.

#ifndef SCPRT_DETECT_SNAPSHOT_IO_H_
#define SCPRT_DETECT_SNAPSHOT_IO_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "detect/config.h"
#include "durability/error.h"
#include "stream/message.h"

namespace scprt::detect::snapshot_io {

inline constexpr char kMagic[8] = {'S', 'C', 'P', 'R', 'T', 'S', 'N', 'P'};
/// Current container version (written by every save). Version 6 writes
/// each fact once: one clock, one edge list, one member table, and no
/// statistics counters (docs/formats.md).
inline constexpr std::uint32_t kFormatVersion = 6;
/// Oldest container version loaders accept: the current one alone.
inline constexpr std::uint32_t kMinFormatVersion = kFormatVersion;

/// The ingest frontend's durable state, carried as the optional trailing
/// section of a snapshot payload. All fields are the values at the fence
/// point (the quantum boundary the checkpoint was cut at).
struct IngestState {
  /// text::KeywordDictionary::SaveState blob (spellings + noun flags in
  /// id order) — the vocabulary the snapshot's keyword ids are relative
  /// to. A full snapshot carries the whole dictionary (dictionary_base
  /// 0); a WAL record carries only the tail interned since the previous
  /// record, whose dictionary size is dictionary_base (ids are
  /// append-only, so the prefix never changes).
  std::string dictionary_state;
  /// First keyword id of dictionary_state's entries.
  std::uint64_t dictionary_base = 0;
  /// AdmissionConfig at save time: policy ordinal, sampling seed and keep
  /// fraction. Restoring them keeps the kFairSample survivor set identical
  /// across the restart.
  std::uint8_t admission_policy = 0;
  std::uint64_t admission_seed = 0;
  double sample_keep_fraction = 0.25;
  /// Source cursor of the last record whose message reached the sink:
  /// records consumed and the byte offset to Seek() to.
  std::uint64_t cursor_record = 0;
  std::uint64_t cursor_byte = 0;
  /// Sequence number the next collected message must carry.
  std::uint64_t next_seq = 0;
  /// Quanta cut by the assembler so far (cumulative across restarts).
  std::uint64_t quanta_cut = 0;
  /// Lifetime source counters (cumulative across restarts).
  std::uint64_t records_read = 0;
  std::uint64_t shed = 0;
};

/// Writes one framed payload. `checkpoint_id` (optional out) receives the
/// payload CRC — the id WAL records chain to. Returns false on stream
/// failure.
bool WriteFrame(std::ostream& out, const std::string& payload,
                std::uint64_t* checkpoint_id = nullptr);

/// Appends the IngestState trailing section (its own magic, section
/// version, length and CRC — see docs/formats.md) to a payload.
void WriteIngestSection(BinaryWriter& out, const IngestState& state);

/// Parses an IngestState trailing section. Returns false on malformed
/// input; `error` (when non-null) distinguishes a future section version
/// (kVersionSkew) from damage (kCorrupt). The dictionary blob is framed
/// and length-checked here but decoded by the caller (text/ owns the
/// entry codec).
bool ReadIngestSection(BinaryReader& in, IngestState& state,
                       durability::ErrorCode* error = nullptr);

/// Reads one full frame and parses its payload: config section, then
/// `restore_state` (which consumes the detector-state section — the
/// loader constructs its engine from `config` and runs RestoreState
/// inside it), then the optional trailing IngestState. The single
/// definition of full-payload acceptance (durability::LoadEngineSnapshot).
/// Returns false (with the typed reason in `error`) on any failure: kIo
/// for an unreadable or empty stream, kBadMagic, kVersionSkew (container
/// or IngestState section), kKindMismatch, or kCorrupt for truncation,
/// CRC failure and malformed payloads.
bool ReadFullSnapshot(
    std::istream& in,
    const std::function<bool(BinaryReader&, const DetectorConfig&)>&
        restore_state,
    std::uint64_t* checkpoint_id = nullptr,
    durability::ErrorCode* error = nullptr, IngestState* ingest = nullptr,
    bool* ingest_present = nullptr);

/// Serializes the detector configuration.
void WriteConfig(BinaryWriter& out, const DetectorConfig& config);

/// Serializes a message list (count-prefixed).
void WriteMessages(BinaryWriter& out,
                   const std::vector<stream::Message>& messages);

/// Parses a message list. Returns false on malformed input.
bool ReadMessages(BinaryReader& in, std::vector<stream::Message>& messages);

}  // namespace scprt::detect::snapshot_io

#endif  // SCPRT_DETECT_SNAPSHOT_IO_H_
