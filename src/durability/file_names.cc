#include "durability/file_names.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace scprt::durability {

namespace fs = std::filesystem;

namespace {

std::string NumberedName(const char* format, std::uint64_t number) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), format, number);
  return buf;
}

bool ParseNumberedName(const char* format, const std::string& name,
                       std::uint64_t& number) {
  unsigned long long value = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), format, &value, &consumed) == 1 &&
      consumed == static_cast<int>(name.size())) {
    number = value;
    return true;
  }
  return false;
}

}  // namespace

std::string SegmentFileName(std::uint64_t number) {
  return NumberedName("seg-%06" PRIu64 ".snap", number);
}
std::string WalFileName(std::uint64_t number) {
  return NumberedName("wal-%06" PRIu64 ".log", number);
}
std::string IndexFileName(std::uint64_t number) {
  return NumberedName("idx-%06" PRIu64 ".pages", number);
}
bool ParseSegmentFileName(const std::string& name, std::uint64_t& number) {
  return ParseNumberedName("seg-%llu.snap%n", name, number);
}
bool ParseWalFileName(const std::string& name, std::uint64_t& number) {
  return ParseNumberedName("wal-%llu.log%n", name, number);
}

DirectoryListing ListDurabilityFiles(const std::string& directory) {
  DirectoryListing listing;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    std::uint64_t number = 0;
    if (ParseSegmentFileName(name, number)) {
      listing.segments.emplace_back(number, name);
    } else if (ParseWalFileName(name, number)) {
      listing.wals.emplace_back(number, name);
    } else if (ParseNumberedName("full-%llu.ckpt%n", name, number) ||
               ParseNumberedName("delta-%llu.ckpt%n", name, number)) {
      listing.legacy_checkpoints.emplace_back(number, name);
    }
  }
  const auto by_number = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(listing.segments.begin(), listing.segments.end(), by_number);
  std::sort(listing.wals.begin(), listing.wals.end(), by_number);
  std::sort(listing.legacy_checkpoints.begin(),
            listing.legacy_checkpoints.end(), by_number);
  return listing;
}

}  // namespace scprt::durability
