// Bounds-checked little-endian binary encoding for the native structural
// snapshots (detect/snapshot_io.h) and any other persisted derived state.
//
// LoadU16/32/64 and StoreU16/32/64 read and write one fixed-width
// little-endian field at a fixed offset of a caller-sized buffer — the
// one codec behind page frames (store/), log record headers
// (durability/wal_record.h) and the two stream classes below.
//
// BinaryWriter appends fixed-width little-endian fields to an in-memory
// buffer; BinaryReader is the strict inverse. The reader never throws and
// never reads past the buffer: the first malformed field trips a sticky
// failure flag, every subsequent read returns zero, and callers check ok()
// once at the end of a section. Length prefixes must be validated with
// CheckLength() before reserving or looping so a corrupted count cannot
// drive a multi-gigabyte allocation.
//
// Floating-point fields travel as IEEE-754 bit patterns (F64), so a value
// round-trips bit-exactly — the property the restore-equivalence guarantee
// of durability/backend.h's snapshots is built on.

#ifndef SCPRT_COMMON_BINARY_IO_H_
#define SCPRT_COMMON_BINARY_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace scprt {

namespace binary_io_internal {

template <typename T>
T LoadLittleEndian(const char* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | (static_cast<T>(static_cast<std::uint8_t>(p[i]))
                            << (8 * i)));
  }
  return v;
}

template <typename T>
void StoreLittleEndian(char* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<char>(v >> (8 * i));
  }
}

}  // namespace binary_io_internal

/// Fixed-width little-endian loads from `p`, which must hold the field.
inline std::uint16_t LoadU16(const char* p) {
  return binary_io_internal::LoadLittleEndian<std::uint16_t>(p);
}
inline std::uint32_t LoadU32(const char* p) {
  return binary_io_internal::LoadLittleEndian<std::uint32_t>(p);
}
inline std::uint64_t LoadU64(const char* p) {
  return binary_io_internal::LoadLittleEndian<std::uint64_t>(p);
}

/// Fixed-width little-endian stores into `p`, which must hold the field.
inline void StoreU16(char* p, std::uint16_t v) {
  binary_io_internal::StoreLittleEndian(p, v);
}
inline void StoreU32(char* p, std::uint32_t v) {
  binary_io_internal::StoreLittleEndian(p, v);
}
inline void StoreU64(char* p, std::uint64_t v) {
  binary_io_internal::StoreLittleEndian(p, v);
}

/// Append-only little-endian encoder over a growable byte buffer.
class BinaryWriter {
 public:
  void U8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void U32(std::uint32_t v) {
    char field[4];
    StoreU32(field, v);
    Bytes(field, sizeof(field));
  }

  void U64(std::uint64_t v) {
    char field[8];
    StoreU64(field, v);
    Bytes(field, sizeof(field));
  }

  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }

  /// Writes the exact IEEE-754 bit pattern (bit-exact round trip).
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

  void Bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  const std::string& data() const { return buffer_; }
  std::string&& TakeData() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Strict decoder over a fixed byte span. Sticky failure: once a read runs
/// past the end, ok() is false and all further reads return zero.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  std::uint8_t U8() {
    if (!Require(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t U32() {
    if (!Require(4)) return 0;
    const std::uint32_t v = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  std::uint64_t U64() {
    if (!Require(8)) return 0;
    const std::uint64_t v = LoadU64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }

  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

  double F64() { return std::bit_cast<double>(U64()); }

  bool ReadBytes(void* out, std::size_t size) {
    if (!Require(size)) return false;
    std::char_traits<char>::copy(static_cast<char*>(out), data_.data() + pos_,
                                 size);
    pos_ += size;
    return true;
  }

  /// Validates a decoded element count against the bytes actually left:
  /// `count` elements of at least `min_element_bytes` each must fit. Trips
  /// the failure flag (and returns false) otherwise — call this before any
  /// reserve/resize driven by untrusted input.
  bool CheckLength(std::uint64_t count, std::size_t min_element_bytes) {
    if (!ok_) return false;
    const std::uint64_t left = remaining();
    if (min_element_bytes == 0) min_element_bytes = 1;
    if (count > left / min_element_bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  bool ok() const { return ok_; }

  /// Marks the stream malformed (semantic validation failures).
  void Fail() { ok_ = false; }

 private:
  bool Require(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`. Used to
/// reject truncated or bit-flipped snapshot payloads before parsing.
std::uint32_t Crc32(std::string_view data);

}  // namespace scprt

#endif  // SCPRT_COMMON_BINARY_IO_H_
