// The one error surface of the durability tier.
//
// Every save, load, commit and recovery path under src/durability/ reports
// failure as a durability::Error: a stable code plus a human-readable
// detail trail. The codes absorb detect::snapshot_io::LoadError one-to-one
// (the payload-level reasons) and add the file-system reasons the old
// free-function surface logged and dropped — fsync failures, rename
// failures, a missing manifest. Callers branch on `code`; operators read
// `detail`.

#ifndef SCPRT_DURABILITY_ERROR_H_
#define SCPRT_DURABILITY_ERROR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "detect/snapshot_io.h"

namespace scprt::durability {

/// Why a durability operation failed. The first eight values mirror
/// snapshot_io::LoadError (same meaning, same ordinals); the rest are
/// storage-layer failures that have no payload-level equivalent.
enum class ErrorCode : std::uint8_t {
  kNone = 0,
  /// A file could not be opened, read or written.
  kIo,
  /// Not a snapshot/manifest file at all (wrong magic).
  kBadMagic,
  /// A container or section version outside the supported range.
  kVersionSkew,
  /// A full frame where a delta was expected, or vice versa.
  kKindMismatch,
  /// Truncation, CRC failure, or a malformed payload.
  kCorrupt,
  /// A delta/log record chained to a different base snapshot.
  kBaseMismatch,
  /// Structurally valid state that is incompatible with the restore
  /// target (overlapping quanta, over-full pending partial quantum).
  kStateMismatch,
  /// fsync/fdatasync failed — bytes were written but durability of the
  /// commit could not be established.
  kSyncFailed,
  /// The atomic publish rename failed — the new state never became
  /// visible (the previous generation is still intact).
  kRenameFailed,
  /// Recovery found durability files but no loadable manifest.
  kNoManifest,
  /// A bounded resource is exhausted — e.g. every buffer-pool frame is
  /// pinned when a page must be brought in.
  kBusy,
};

/// Stable human-readable name ("sync failed", "no manifest", ...).
const char* ErrorCodeName(ErrorCode code);

/// A typed failure: code for programs, detail for operators. Default
/// construction is success.
struct Error {
  ErrorCode code = ErrorCode::kNone;
  /// Failure trail — which file, which step, why. Empty on success.
  std::string detail;

  bool ok() const { return code == ErrorCode::kNone; }

  /// Lifts a payload-level load failure into the unified surface.
  static Error FromLoad(detect::snapshot_io::LoadError error,
                        std::string detail = {});

  /// Projects back onto the payload-level enum (the backends name
  /// skipped artifacts with snapshot_io::LoadErrorName).
  /// Storage-layer codes with no payload equivalent map to kIo.
  detect::snapshot_io::LoadError ToLoadError() const;

  /// "code: detail" (or just the code name when detail is empty).
  std::string ToString() const;
};

/// Builds a failure in one expression.
Error MakeError(ErrorCode code, std::string_view detail);

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_ERROR_H_
