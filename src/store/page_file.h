// The paged-file layer of the event store: a file of fixed 4 KB pages,
// each CRC-framed so torn writes and bit flips surface as typed errors
// instead of garbage reads.
//
// Frame layout (docs/formats.md, event-store pages):
//
//   offset  size  field
//   0       4     CRC-32 (IEEE) of bytes [4, 4096) — page-no echo + payload
//   4       4     page number echo (little-endian u32)
//   8       4088  payload
//
// The page-number echo makes a page self-identifying: a block that lands
// at the wrong offset (or a stale page surfaced by a torn multi-page
// write) fails verification even when its CRC is internally consistent.
// Page 0 is the file header (magic, version, page size) written once at
// Create; every other page belongs to the index layers above.
//
// The logical page count is decoupled from the physical file size:
// recovery re-opens with the committed count and the allocator hands the
// uncommitted tail out again, overwriting garbage in place. Single
// writer; readers may share a file that a writer only grows.
//
// There is no user-space page cache above this layer: every ReadPage is a
// pread and every WritePage a pwrite, counted into obs as
// "store.page_read" and "store.page_write".

#ifndef SCPRT_STORE_PAGE_FILE_H_
#define SCPRT_STORE_PAGE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "durability/error.h"
#include "obs/registry.h"

namespace scprt::store {

/// Total bytes of one page frame on disk.
inline constexpr std::size_t kPageSize = 4096;
/// Frame header: u32 CRC + u32 page-number echo.
inline constexpr std::size_t kPageHeaderSize = 8;
/// Payload bytes available to the layers above.
inline constexpr std::size_t kPagePayloadSize = kPageSize - kPageHeaderSize;

/// Positional page I/O over one POSIX descriptor.
class PageFile {
 public:
  /// Creates (truncating) `path` and writes the header page. The logical
  /// page count starts at 1 (page 0 is the header).
  static std::unique_ptr<PageFile> Create(const std::string& path,
                                          durability::Error* error = nullptr);

  /// Opens an existing file and verifies the header page. The logical page
  /// count is derived from the physical size; callers recovering from a
  /// meta record should clamp it with set_page_count(). `read_only` opens
  /// the descriptor O_RDONLY (queries against a live writer's file).
  static std::unique_ptr<PageFile> Open(const std::string& path,
                                        bool read_only,
                                        durability::Error* error = nullptr);

  ~PageFile();
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Reads page `page_no` into `payload` (kPagePayloadSize bytes).
  /// kCorrupt when the CRC or the page-number echo fails; kIo on a short
  /// or failed read.
  durability::Error ReadPage(std::uint32_t page_no, char* payload);

  /// Frames and writes `payload` (kPagePayloadSize bytes) as page
  /// `page_no`. Does not sync.
  durability::Error WritePage(std::uint32_t page_no, const char* payload);

  /// Hands out the next logical page number (physical extension happens at
  /// first write).
  std::uint32_t AllocatePage() { return page_count_++; }

  /// Logical page count (allocated, not necessarily written or durable).
  std::uint32_t page_count() const { return page_count_; }

  /// Recovery clamp: re-bases the allocator at `count` so the uncommitted
  /// physical tail is handed out (and overwritten) again.
  void set_page_count(std::uint32_t count) { page_count_ = count; }

  /// fdatasync. False => ErrorCode::kSyncFailed territory for the caller.
  bool Sync();

  const std::string& path() const { return path_; }

 private:
  PageFile(int fd, std::string path, std::uint32_t page_count);

  int fd_;
  std::string path_;
  std::uint32_t page_count_;
  obs::Counter* reads_;
  obs::Counter* writes_;
};

}  // namespace scprt::store

#endif  // SCPRT_STORE_PAGE_FILE_H_
