#include "store/page_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "common/binary_io.h"

namespace scprt::store {

namespace {

using durability::Error;
using durability::ErrorCode;
using durability::MakeError;

constexpr char kPageFileMagic[8] = {'S', 'C', 'P', 'R', 'T', 'P', 'G', 'F'};
constexpr std::uint32_t kPageFileVersion = 1;

Error Errno(ErrorCode code, const std::string& what, const std::string& path) {
  return MakeError(code, what + " " + path + ": " + std::strerror(errno));
}

// Frames `payload` as page `page_no` into `frame` (kPageSize bytes).
void FramePage(std::uint32_t page_no, const char* payload, char* frame) {
  StoreU32(frame + 4, page_no);
  std::memcpy(frame + kPageHeaderSize, payload, kPagePayloadSize);
  StoreU32(frame, Crc32(std::string_view(frame + 4, kPageSize - 4)));
}

bool PreadFull(int fd, char* buf, std::size_t n, off_t offset) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, buf + done, n - done, offset + done);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(r);
  }
  return true;
}

bool PwriteFull(int fd, const char* buf, std::size_t n, off_t offset) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pwrite(fd, buf + done, n - done, offset + done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

PageFile::PageFile(int fd, std::string path, std::uint32_t page_count)
    : fd_(fd),
      path_(std::move(path)),
      page_count_(page_count),
      reads_(obs::Registry::Default().GetCounter("store.page_read")),
      writes_(obs::Registry::Default().GetCounter("store.page_write")) {}

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<PageFile> PageFile::Create(const std::string& path,
                                           Error* error) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = Errno(ErrorCode::kIo, "open", path);
    return nullptr;
  }
  auto file = std::unique_ptr<PageFile>(new PageFile(fd, path, 0));
  char payload[kPagePayloadSize] = {};
  std::memcpy(payload, kPageFileMagic, sizeof(kPageFileMagic));
  StoreU32(payload + 8, kPageFileVersion);
  StoreU32(payload + 12, static_cast<std::uint32_t>(kPageSize));
  const std::uint32_t header = file->AllocatePage();  // page 0
  if (Error e = file->WritePage(header, payload); !e.ok()) {
    if (error != nullptr) *error = std::move(e);
    return nullptr;
  }
  return file;
}

std::unique_ptr<PageFile> PageFile::Open(const std::string& path,
                                         bool read_only, Error* error) {
  const int fd = ::open(path.c_str(), read_only ? O_RDONLY : O_RDWR);
  if (fd < 0) {
    if (error != nullptr) *error = Errno(ErrorCode::kIo, "open", path);
    return nullptr;
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < static_cast<off_t>(kPageSize)) {
    ::close(fd);
    if (error != nullptr) {
      *error = MakeError(ErrorCode::kCorrupt,
                         path + ": shorter than one page");
    }
    return nullptr;
  }
  auto file = std::unique_ptr<PageFile>(new PageFile(
      fd, path,
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(size) /
                                 kPageSize)));
  char payload[kPagePayloadSize];
  if (Error e = file->ReadPage(0, payload); !e.ok()) {
    if (error != nullptr) *error = std::move(e);
    return nullptr;
  }
  if (std::memcmp(payload, kPageFileMagic, sizeof(kPageFileMagic)) != 0) {
    if (error != nullptr) {
      *error = MakeError(ErrorCode::kBadMagic, path + ": not a page file");
    }
    return nullptr;
  }
  if (LoadU32(payload + 8) != kPageFileVersion) {
    if (error != nullptr) {
      *error = MakeError(ErrorCode::kVersionSkew,
                         path + ": unsupported page file version");
    }
    return nullptr;
  }
  if (LoadU32(payload + 12) != kPageSize) {
    if (error != nullptr) {
      *error = MakeError(ErrorCode::kCorrupt,
                         path + ": page size mismatch");
    }
    return nullptr;
  }
  return file;
}

Error PageFile::ReadPage(std::uint32_t page_no, char* payload) {
  char frame[kPageSize];
  if (!PreadFull(fd_, frame, kPageSize,
                 static_cast<off_t>(page_no) *
                     static_cast<off_t>(kPageSize))) {
    return Errno(ErrorCode::kIo,
                 "read page " + std::to_string(page_no) + " of", path_);
  }
  reads_->Increment();
  const std::uint32_t stored_crc = LoadU32(frame);
  const std::uint32_t crc = Crc32(std::string_view(frame + 4, kPageSize - 4));
  if (crc != stored_crc) {
    return MakeError(ErrorCode::kCorrupt,
                     path_ + ": CRC mismatch on page " +
                         std::to_string(page_no));
  }
  if (LoadU32(frame + 4) != page_no) {
    return MakeError(ErrorCode::kCorrupt,
                     path_ + ": page " + std::to_string(page_no) +
                         " carries number " +
                         std::to_string(LoadU32(frame + 4)));
  }
  std::memcpy(payload, frame + kPageHeaderSize, kPagePayloadSize);
  return {};
}

Error PageFile::WritePage(std::uint32_t page_no, const char* payload) {
  char frame[kPageSize];
  FramePage(page_no, payload, frame);
  if (!PwriteFull(fd_, frame, kPageSize,
                  static_cast<off_t>(page_no) *
                      static_cast<off_t>(kPageSize))) {
    return Errno(ErrorCode::kIo,
                 "write page " + std::to_string(page_no) + " of", path_);
  }
  writes_->Increment();
  return {};
}

bool PageFile::Sync() {
#if defined(__APPLE__)
  return ::fsync(fd_) == 0;
#else
  return ::fdatasync(fd_) == 0;
#endif
}

}  // namespace scprt::store
