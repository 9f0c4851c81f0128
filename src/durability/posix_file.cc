#include "durability/posix_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace scprt::durability {

namespace {

// Spill threshold of the user-space buffer: a steady stream of small
// appends costs one write(2) per 32 KB, not per record.
constexpr std::size_t kBufferLimit = 32768;

std::string Errno(int err) {
  return std::strerror(err) != nullptr ? std::strerror(err) : "unknown errno";
}

bool SyncFd(int fd) {
#if defined(__APPLE__)
  return ::fsync(fd) == 0;
#else
  return ::fdatasync(fd) == 0;
#endif
}

}  // namespace

std::unique_ptr<AppendFile> AppendFile::Open(const std::string& path,
                                             Error* error) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = MakeError(ErrorCode::kIo,
                         "open " + path + ": " + Errno(errno));
    }
    return nullptr;
  }
  return std::unique_ptr<AppendFile>(new AppendFile(fd, path));
}

AppendFile::AppendFile(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {
  buffer_.reserve(kBufferLimit);
}

AppendFile::~AppendFile() {
  Flush();
  if (fd_ >= 0) ::close(fd_);
}

bool AppendFile::WriteRaw(const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t written = ::write(fd_, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    n -= static_cast<std::size_t>(written);
  }
  return true;
}

bool AppendFile::Append(std::string_view data) {
  size_ += data.size();
  if (buffer_.size() + data.size() <= kBufferLimit) {
    buffer_.append(data.data(), data.size());
    return true;
  }
  if (!Flush()) return false;
  if (data.size() <= kBufferLimit) {
    buffer_.append(data.data(), data.size());
    return true;
  }
  return WriteRaw(data.data(), data.size());
}

bool AppendFile::Flush() {
  if (buffer_.empty()) return true;
  const bool ok = WriteRaw(buffer_.data(), buffer_.size());
  buffer_.clear();
  return ok;
}

bool AppendFile::Sync() {
  if (!Flush()) return false;
  return SyncFd(fd_);
}

bool SyncDir(const std::string& directory) {
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

Error WriteFileAtomic(const std::string& path, std::string_view contents,
                      bool sync) {
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  {
    Error open_error;
    auto file = AppendFile::Open(tmp, &open_error);
    if (file == nullptr) return open_error;
    if (!file->Append(contents) || !file->Flush()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return MakeError(ErrorCode::kIo, "write " + tmp + " failed");
    }
    if (sync && !file->Sync()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return MakeError(ErrorCode::kSyncFailed, "fdatasync " + tmp + " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string reason = Errno(errno);
    std::error_code ec;
    fs::remove(tmp, ec);
    return MakeError(ErrorCode::kRenameFailed,
                     "rename " + tmp + " -> " + path + ": " + reason);
  }
  if (sync) {
    const std::string parent = fs::path(path).parent_path().string();
    if (!parent.empty() && !SyncDir(parent)) {
      // The rename landed; only its power-loss durability is in doubt.
      return MakeError(ErrorCode::kSyncFailed, "fsync dir " + parent +
                                                   " after publishing " +
                                                   path + " failed");
    }
  }
  return {};
}

bool ReadFileToString(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return false;
  out = buffer.str();
  return true;
}

}  // namespace scprt::durability
