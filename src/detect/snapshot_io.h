// The versioned binary container for native structural checkpoints.
//
// A snapshot (a WAL segment, or a bare SaveSnapshot stream) is one frame:
//
//   offset  size  field
//   0       8     magic "SCPRTSNP"
//   8       4     format version (little-endian u32; currently 4)
//   12      1     kind: 1 = full snapshot (2 was the retired delta file;
//                 any other value is rejected as a kind mismatch)
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
// every derived structure (AKG layer, graph + clusters with their ids,
// rank histories, first-report set, quantizer clock + partial quantum).
//
// Delta payload: the body of every WAL record (durability/wal_backend.h)
// — the id of the segment it chains to (the segment's payload CRC), the
// quantum it commits (raw messages), the pending partial quantum and the
// quantizer clock at commit time. The record appends an IngestState
// carrying the dictionary tail interned since the previous record.
//
// IngestState (version 3) is an optional trailing section with its own
// magic / section version / length / CRC framing: the ingest frontend's
// side of a live deployment — the keyword dictionary, admission seeds, the
// source cursor to resume reading from, and the stream counters. Snapshots
// written without it (version 2, or a bare detector save) restore a bare
// detector exactly as before.
//
// Versioning policy and skew rules (the full table is docs/formats.md):
// the container version bumps on ANY encoding change. Loaders accept
// [kMinFormatVersion, kFormatVersion]; version 2 payloads are a strict
// prefix of version 3's (no IngestState), and version 4 appends one config
// byte (the weighted-Min-Hash flag, absent = unweighted) plus — only when
// that flag is set — weighted signature scores and the sketch ring inside
// the detector-state section, so all three parse through the same path
// keyed on the frame version. Version 1 (the replay era) and future
// versions are rejected as kVersionSkew — checkpoints are recovery
// artifacts, not archives, so there is no migration: take a fresh full
// snapshot after upgrading.

#ifndef SCPRT_DETECT_SNAPSHOT_IO_H_
#define SCPRT_DETECT_SNAPSHOT_IO_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "detect/config.h"
#include "stream/message.h"

namespace scprt::detect::snapshot_io {

inline constexpr char kMagic[8] = {'S', 'C', 'P', 'R', 'T', 'S', 'N', 'P'};
/// Current container version (written by every save). Version 4 added the
/// weighted-Min-Hash config flag and, when set, the weighted signature
/// encoding (docs/formats.md).
inline constexpr std::uint32_t kFormatVersion = 4;
/// Oldest container version still accepted by loaders (PR 2-era snapshots
/// without an IngestState section).
inline constexpr std::uint32_t kMinFormatVersion = 2;

/// What a frame contains. Only full snapshots remain; kind 2 was the
/// retired delta-file frame and is never written.
enum class FrameKind : std::uint8_t {
  kFull = 1,
};

/// Why a checkpoint failed to load. Everything except kNone means the load
/// returned failure; the distinctions let an operator tell "this file is
/// damaged" (kCorrupt — restore from an older checkpoint) from "this file
/// is from another software version" (kVersionSkew — take a fresh full
/// snapshot after upgrading) from "this segment is not the one its
/// manifest names" (kBaseMismatch — the chain is broken).
enum class LoadError : std::uint8_t {
  kNone = 0,
  /// The stream could not be opened or yielded no bytes at all.
  kIo,
  /// The first 8 bytes are not the snapshot magic — not a checkpoint file.
  kBadMagic,
  /// Valid magic, but a container (or IngestState section) version outside
  /// the supported range.
  kVersionSkew,
  /// A frame whose kind byte is not a full snapshot.
  kKindMismatch,
  /// Truncation, CRC failure, or a malformed payload.
  kCorrupt,
  /// A segment or log record chained to a different base snapshot.
  kBaseMismatch,
  /// No snapshot loader produces this; it keeps the ordinals aligned
  /// with durability::ErrorCode, whose kStateMismatch the event store
  /// uses.
  kStateMismatch,
};

/// Stable human-readable name ("corrupt", "version skew", ...).
const char* LoadErrorName(LoadError error);

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
bool WriteFrame(std::ostream& out, FrameKind kind, const std::string& payload,
                std::uint64_t* checkpoint_id = nullptr);

/// Reads and verifies one frame of the expected kind. Returns false on bad
/// magic, version skew, kind mismatch, truncation or CRC failure (`error`,
/// when non-null, receives the reason); `payload`/`checkpoint_id`/`version`
/// are only written on success. `version` (optional out) receives the
/// container version the frame was written under — payload parsers key
/// version-gated fields off it.
bool ReadFrame(std::istream& in, FrameKind expected_kind,
               std::string& payload, std::uint64_t* checkpoint_id = nullptr,
               LoadError* error = nullptr, std::uint32_t* version = nullptr);

/// Appends the IngestState trailing section (its own magic, section
/// version, length and CRC — see docs/formats.md) to a payload.
void WriteIngestSection(BinaryWriter& out, const IngestState& state);

/// Parses an IngestState trailing section. Returns false on malformed
/// input; `error` (when non-null) distinguishes a future section version
/// (kVersionSkew) from damage (kCorrupt). The dictionary blob is framed
/// and length-checked here but decoded by the caller (text/ owns the
/// entry codec).
bool ReadIngestSection(BinaryReader& in, IngestState& state,
                       LoadError* error = nullptr);

/// Reads one full frame and parses its payload: config section, then
/// `restore_state` (which consumes the detector-state section — the
/// loader constructs its engine from `config` and runs RestoreState
/// inside it), then the optional trailing IngestState. The single
/// definition of full-payload acceptance (durability::LoadEngineSnapshot).
/// Returns false (with the typed reason in `error`) on any failure.
bool ReadFullSnapshot(
    std::istream& in,
    const std::function<bool(BinaryReader&, const DetectorConfig&)>&
        restore_state,
    std::uint64_t* checkpoint_id = nullptr, LoadError* error = nullptr,
    IngestState* ingest = nullptr, bool* ingest_present = nullptr);

/// Serializes the detector configuration.
void WriteConfig(BinaryWriter& out, const DetectorConfig& config);

/// Parses and validates a configuration. Returns false if malformed or if
/// any value would violate a constructor precondition (the loader must
/// never feed a corrupt config into SCPRT_CHECK). `version` is the
/// container version of the enclosing frame: frames older than 4 predate
/// the weighted-Min-Hash flag, which then reads as its default (false).
bool ReadConfig(BinaryReader& in, DetectorConfig& config,
                std::uint32_t version = kFormatVersion);

/// Serializes a message list (count-prefixed).
void WriteMessages(BinaryWriter& out,
                   const std::vector<stream::Message>& messages);

/// Parses a message list. Returns false on malformed input.
bool ReadMessages(BinaryReader& in, std::vector<stream::Message>& messages);

/// A parsed delta payload.
struct DeltaPayload {
  /// Payload CRC of the full snapshot this delta extends.
  std::uint64_t base_id = 0;
  /// Quanta processed since the base, oldest first.
  std::vector<stream::Quantum> quanta;
  /// Partial quantum pending at save time.
  std::vector<stream::Message> pending;
  /// Quantizer clock at save time.
  QuantumIndex next_index = 0;
};

/// Serializes a delta payload straight from the caller's structures.
void WriteDelta(BinaryWriter& out, std::uint64_t base_id,
                QuantumIndex next_index,
                const std::vector<stream::Quantum>& quanta,
                const std::vector<stream::Message>& pending);

/// Parses a delta payload. Returns false on malformed input. Whether the
/// delta fits its restore target is the caller's check (WAL recovery
/// validates each record against the segment and the previous record).
bool ReadDelta(BinaryReader& in, DeltaPayload& delta);

}  // namespace scprt::detect::snapshot_io

#endif  // SCPRT_DETECT_SNAPSHOT_IO_H_
