// The write-ahead log's on-disk record: its framing and its payload.
//
// A log file is a plain sequence of self-delimiting records, one per
// committed quantum:
//
//   offset  size  field
//   0       4     payload length (little-endian u32)
//   4       4     CRC-32 (IEEE) of the payload
//   8       ...   payload
//
// LogReader recovers the newest consistent prefix: end of file at a
// record boundary is a clean end, and so is a partial header or a length
// that runs past the end of the file — the torn final append, which never
// committed. A CRC mismatch is damage and ends the read. There is no
// re-synchronisation: the state after record k is only meaningful if
// records 0..k-1 were all applied, so replaying past a hole is never an
// option.
//
// The payload holds exactly what one commit persists (WalRecord):
//
//   [base id u64][quantum index i64][quantum message list]
//   [pending message list][IngestState section]
//
// Message lists and the IngestState section are snapshot_io's encodings;
// the section's dictionary blob is only the tail interned since the
// previous record. Whether a record fits its restore target (chain, clock,
// pending size, dictionary watermark) is WalBackend's acceptance check.

#ifndef SCPRT_DURABILITY_WAL_RECORD_H_
#define SCPRT_DURABILITY_WAL_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "detect/snapshot_io.h"
#include "durability/posix_file.h"
#include "stream/message.h"

namespace scprt::durability {

/// Record header: payload length (u32) + payload CRC-32 (u32).
inline constexpr std::size_t kLogHeaderSize = 4 + 4;

/// Appends `payload` to `file` as one framed record. Returns false on
/// write failure — the file tail is then undefined and the caller must
/// stop using this log (recovery reads the torn tail as a clean end).
bool AppendLogRecord(AppendFile& file, std::string_view payload);

/// Reads one log file's records in order, stopping at its newest
/// consistent prefix.
class LogReader {
 public:
  /// Reads from an in-memory copy of the log file (a log spans one
  /// generation, so whole-file reads are cheap).
  explicit LogReader(std::string contents);

  /// Points `payload` at the next record's bytes (valid while the reader
  /// lives). Returns false at the clean end of the log or at the first
  /// damaged record — `why_stopped()` tells the two apart.
  bool ReadRecord(std::string_view& payload);

  /// Why reading stopped: empty while records keep coming and after a
  /// clean end; a description of the damage otherwise.
  const std::string& why_stopped() const { return why_stopped_; }

  /// Records returned so far.
  std::uint64_t records_read() const { return records_read_; }

 private:
  std::string contents_;
  std::size_t pos_ = 0;
  bool done_ = false;
  std::string why_stopped_;
  std::uint64_t records_read_ = 0;
};

/// One decoded log record: the quantum a commit persisted, on top of the
/// segment whose checkpoint id is `base_id`.
struct WalRecord {
  std::uint64_t base_id = 0;
  stream::Quantum quantum;
  /// The engine's pending partial quantum at the commit.
  std::vector<stream::Message> pending;
  /// Frontend state at the fence; the dictionary blob is a tail only.
  detect::snapshot_io::IngestState state;
};

/// Encodes one record payload straight from the caller's structures.
std::string EncodeWalRecord(std::uint64_t base_id,
                            const stream::Quantum& quantum,
                            const std::vector<stream::Message>& pending,
                            const detect::snapshot_io::IngestState& state);

/// Decodes a record payload, bounds-checked and to its last byte. Returns
/// false on malformed input.
bool DecodeWalRecord(std::string_view payload, WalRecord& record);

}  // namespace scprt::durability

#endif  // SCPRT_DURABILITY_WAL_RECORD_H_
