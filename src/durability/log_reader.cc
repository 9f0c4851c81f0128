#include "durability/log_reader.h"

#include <utility>

#include "common/binary_io.h"

namespace scprt::durability {

LogReader::LogReader(std::string contents)
    : contents_(std::move(contents)) {}

bool LogReader::Stop(const std::string& reason) {
  done_ = true;
  why_stopped_ = reason;
  return false;
}

bool LogReader::ReadRecord(std::string& payload) {
  if (done_) return false;
  payload.clear();
  std::string assembled;
  bool in_fragmented = false;
  // A record torn mid-append never committed, so a truncation that cuts
  // into it still leaves a consistent prefix — report a clean end unless
  // the truncation falls *inside* an already-started fragment sequence.
  const std::string torn =
      "log ends inside a fragmented record (torn tail)";
  for (;;) {
    const std::size_t block_remaining =
        log::kBlockSize - (pos_ % log::kBlockSize);
    if (block_remaining < log::kHeaderSize) {
      // Zero-filled block trailer (or the file ends inside one).
      if (pos_ + block_remaining > contents_.size()) {
        return Stop(in_fragmented ? torn : "");
      }
      pos_ += block_remaining;
      continue;
    }
    if (pos_ >= contents_.size()) {
      return Stop(in_fragmented ? torn : "");
    }
    if (pos_ + log::kHeaderSize > contents_.size()) {
      // Partial header: the append it belonged to never completed.
      return Stop(in_fragmented ? torn : "");
    }
    const char* header = contents_.data() + pos_;
    const std::uint32_t crc = LoadU32(header);
    const std::size_t length = LoadU16(header + 4);
    const std::uint8_t type = static_cast<std::uint8_t>(header[6]);
    if (type == log::kZero && length == 0 && crc == 0) {
      // All-zero header: padding / preallocated space, data ends here.
      return Stop(in_fragmented ? torn : "");
    }
    if (type > log::kMaxRecordType) {
      return Stop("unknown fragment type " + std::to_string(type));
    }
    if (length > block_remaining - log::kHeaderSize) {
      // A forged or damaged length can at most point past its own block.
      return Stop("fragment length overruns its block");
    }
    if (pos_ + log::kHeaderSize + length > contents_.size()) {
      return Stop(in_fragmented ? torn : "");
    }
    // CRC covers [type byte || payload]; verify before trusting either.
    std::string hashed;
    hashed.reserve(1 + length);
    hashed.push_back(static_cast<char>(type));
    hashed.append(contents_, pos_ + log::kHeaderSize, length);
    if (Crc32(hashed) != crc) {
      return Stop("fragment checksum mismatch");
    }
    pos_ += log::kHeaderSize + length;
    const std::string_view fragment(
        contents_.data() + pos_ - length, length);
    switch (static_cast<log::RecordType>(type)) {
      case log::kFullRecord:
        if (in_fragmented) {
          return Stop("full record inside a fragmented record");
        }
        payload.assign(fragment.data(), fragment.size());
        ++records_read_;
        return true;
      case log::kFirst:
        if (in_fragmented) {
          return Stop("first fragment inside a fragmented record");
        }
        assembled.assign(fragment.data(), fragment.size());
        in_fragmented = true;
        break;
      case log::kMiddle:
        if (!in_fragmented) {
          return Stop("middle fragment without a first");
        }
        assembled.append(fragment.data(), fragment.size());
        break;
      case log::kLast:
        if (!in_fragmented) {
          return Stop("last fragment without a first");
        }
        assembled.append(fragment.data(), fragment.size());
        payload = std::move(assembled);
        ++records_read_;
        return true;
      case log::kZero:
        return Stop("zero-type fragment with a payload");
    }
  }
}

}  // namespace scprt::durability
