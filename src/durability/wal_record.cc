#include "durability/wal_record.h"

#include <limits>
#include <utility>

#include "common/binary_io.h"
#include "common/check.h"

namespace scprt::durability {

namespace sio = detect::snapshot_io;

bool AppendLogRecord(AppendFile& file, std::string_view payload) {
  SCPRT_CHECK(payload.size() <= std::numeric_limits<std::uint32_t>::max());
  char header[kLogHeaderSize];
  StoreU32(header, static_cast<std::uint32_t>(payload.size()));
  StoreU32(header + 4, Crc32(payload));
  return file.Append(std::string_view(header, kLogHeaderSize)) &&
         file.Append(payload);
}

LogReader::LogReader(std::string contents)
    : contents_(std::move(contents)) {}

bool LogReader::ReadRecord(std::string_view& payload) {
  if (done_) return false;
  const std::size_t left = contents_.size() - pos_;
  const char* header = contents_.data() + pos_;
  // End of file, a partial header, or a length running past the end of
  // the file: the append that would have filled it never completed, so
  // the prefix so far is all that committed — a clean end, not damage.
  if (left < kLogHeaderSize || LoadU32(header) > left - kLogHeaderSize) {
    done_ = true;
    return false;
  }
  payload = std::string_view(header + kLogHeaderSize, LoadU32(header));
  if (Crc32(payload) != LoadU32(header + 4)) {
    done_ = true;
    why_stopped_ = "record checksum mismatch";
    return false;
  }
  pos_ += kLogHeaderSize + payload.size();
  ++records_read_;
  return true;
}

std::string EncodeWalRecord(std::uint64_t base_id,
                            const stream::Quantum& quantum,
                            const std::vector<stream::Message>& pending,
                            const sio::IngestState& state) {
  BinaryWriter out;
  out.U64(base_id);
  out.I64(quantum.index);
  sio::WriteMessages(out, quantum.messages);
  sio::WriteMessages(out, pending);
  sio::WriteIngestSection(out, state);
  return out.TakeData();
}

bool DecodeWalRecord(std::string_view payload, WalRecord& record) {
  BinaryReader in(payload);
  WalRecord parsed;
  parsed.base_id = in.U64();
  parsed.quantum.index = in.I64();
  if (!sio::ReadMessages(in, parsed.quantum.messages) ||
      !sio::ReadMessages(in, parsed.pending) ||
      !sio::ReadIngestSection(in, parsed.state) || !in.ok() ||
      in.remaining() != 0) {
    return false;
  }
  record = std::move(parsed);
  return true;
}

}  // namespace scprt::durability
