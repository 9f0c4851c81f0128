#include "durability/log_writer.h"

#include <string>

#include "common/binary_io.h"
#include "common/check.h"

namespace scprt::durability {

namespace {
constexpr char kZeroTrailer[log::kHeaderSize] = {0};
}

LogWriter::LogWriter(AppendFile* file) : file_(file) {
  SCPRT_CHECK(file_ != nullptr);
}

bool LogWriter::AddRecord(std::string_view payload) {
  const char* data = payload.data();
  std::size_t left = payload.size();
  bool first_fragment = true;
  // The loop body runs at least once: an empty payload still emits one
  // zero-length kFullRecord fragment.
  do {
    const std::size_t leftover = log::kBlockSize - block_offset_;
    if (leftover < log::kHeaderSize) {
      // No room for a header — zero-fill to the block boundary.
      if (leftover > 0 &&
          !file_->Append(std::string_view(kZeroTrailer, leftover))) {
        return false;
      }
      block_offset_ = 0;
    }
    const std::size_t available =
        log::kBlockSize - block_offset_ - log::kHeaderSize;
    const std::size_t fragment = left < available ? left : available;
    const bool last_fragment = (fragment == left);
    log::RecordType type;
    if (first_fragment && last_fragment) {
      type = log::kFullRecord;
    } else if (first_fragment) {
      type = log::kFirst;
    } else if (last_fragment) {
      type = log::kLast;
    } else {
      type = log::kMiddle;
    }
    if (!EmitPhysicalRecord(type, data, fragment)) return false;
    data += fragment;
    left -= fragment;
    first_fragment = false;
  } while (left > 0);
  return true;
}

bool LogWriter::EmitPhysicalRecord(log::RecordType type, const char* data,
                                   std::size_t n) {
  SCPRT_CHECK(n <= 0xffff);
  SCPRT_CHECK(block_offset_ + log::kHeaderSize + n <= log::kBlockSize);
  // CRC over [type byte || payload]: a fragment moved to another position
  // in the record sequence fails its checksum even with intact bytes.
  std::string hashed;
  hashed.reserve(1 + n);
  hashed.push_back(static_cast<char>(type));
  hashed.append(data, n);

  char header[log::kHeaderSize];
  StoreU32(header, Crc32(hashed));
  StoreU16(header + 4, static_cast<std::uint16_t>(n));
  header[6] = static_cast<char>(type);

  if (!file_->Append(std::string_view(header, log::kHeaderSize))) return false;
  if (n > 0 && !file_->Append(std::string_view(data, n))) return false;
  block_offset_ += log::kHeaderSize + n;
  return true;
}

}  // namespace scprt::durability
