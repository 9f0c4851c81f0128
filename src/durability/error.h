// The one error surface of the durability tier.
//
// Every save, load, commit and recovery path under src/durability/ reports
// failure as a durability::Error: a stable code plus a human-readable
// detail trail. ErrorCode is the one error enum of the persistence tier:
// the snapshot container's loaders (detect/snapshot_io.h) report the
// payload-level reasons with it directly, and the storage layers add the
// file-system reasons — fsync failures, rename failures. Callers branch
// on `code`; operators read `detail`. Neither is ever written to disk.

#ifndef SCPRT_DURABILITY_ERROR_H_
#define SCPRT_DURABILITY_ERROR_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace scprt::durability {

/// Why a durability operation failed. kIo through kCorrupt are what the
/// snapshot container's loaders report (kCorrupt — restore from an older
/// generation; kVersionSkew — take a fresh full snapshot after
/// upgrading); the rest come from the storage layers.
enum class ErrorCode : std::uint8_t {
  kNone = 0,
  /// A file could not be opened, read or written.
  kIo,
  /// Not a snapshot or page file at all (wrong magic).
  kBadMagic,
  /// A container or section version outside the supported range.
  kVersionSkew,
  /// A snapshot frame whose kind byte is not a full snapshot.
  kKindMismatch,
  /// Truncation, CRC failure, or a malformed payload.
  kCorrupt,
  /// A request the target cannot hold (e.g. an event-store geometry or
  /// record larger than its page format allows).
  kStateMismatch,
  /// fsync/fdatasync failed — bytes were written but durability of the
  /// commit could not be established.
  kSyncFailed,
  /// The atomic publish rename failed — the new state never became
  /// visible (the previous generation is still intact).
  kRenameFailed,
};

/// Stable human-readable name ("sync failed", "version skew", ...).
const char* ErrorCodeName(ErrorCode code);

/// A typed failure: code for programs, detail for operators. Default
/// construction is success.
struct Error {
  ErrorCode code = ErrorCode::kNone;
  /// Failure trail — which file, which step, why. Empty on success.
  std::string detail;

  bool ok() const { return code == ErrorCode::kNone; }

  /// "code: detail" (or just the code name when detail is empty).
  std::string ToString() const;
};

/// Builds a failure in one expression.
Error MakeError(ErrorCode code, std::string_view detail);

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_ERROR_H_
