#include "durability/manifest.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/binary_io.h"
#include "durability/posix_file.h"

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
std::string ManifestFileName(std::uint64_t number) {
  return NumberedName("MANIFEST-%06" PRIu64, number);
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
bool ParseManifestFileName(const std::string& name, std::uint64_t& number) {
  return ParseNumberedName("MANIFEST-%llu%n", name, number);
}
bool ParseIndexFileName(const std::string& name, std::uint64_t& number) {
  return ParseNumberedName("idx-%llu.pages%n", name, number);
}

std::string EncodeManifest(const Manifest& manifest) {
  BinaryWriter payload;
  payload.U64(manifest.segment_number);
  payload.U64(manifest.wal_number);
  payload.U64(manifest.base_checkpoint_id);
  payload.U64(manifest.next_file_number);
  payload.I64(manifest.next_quantum);
  const std::string body = payload.TakeData();

  BinaryWriter frame;
  frame.Bytes(kManifestMagic, sizeof(kManifestMagic));
  frame.U32(kManifestVersion);
  frame.U64(body.size());
  frame.U32(Crc32(body));
  frame.Bytes(body.data(), body.size());
  return frame.TakeData();
}

bool DecodeManifest(const std::string& bytes, Manifest& manifest,
                    Error* error) {
  const auto fail = [error](ErrorCode code, std::string_view detail) {
    if (error != nullptr) *error = MakeError(code, detail);
    return false;
  };
  BinaryReader in(bytes);
  char magic[sizeof(kManifestMagic)];
  if (!in.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kManifestMagic, sizeof(magic)) != 0) {
    return fail(ErrorCode::kBadMagic, "not a manifest file");
  }
  const std::uint32_t version = in.U32();
  if (!in.ok()) {
    return fail(ErrorCode::kCorrupt, "truncated manifest header");
  }
  if (version != kManifestVersion) {
    return fail(ErrorCode::kVersionSkew,
                "manifest version " + std::to_string(version));
  }
  const std::uint64_t length = in.U64();
  const std::uint32_t crc = in.U32();
  if (!in.ok() || !in.CheckLength(length, 1)) {
    return fail(ErrorCode::kCorrupt, "truncated manifest frame");
  }
  std::string body(static_cast<std::size_t>(length), '\0');
  if (!in.ReadBytes(body.data(), body.size()) || Crc32(body) != crc) {
    return fail(ErrorCode::kCorrupt, "manifest checksum mismatch");
  }
  BinaryReader payload(body);
  Manifest parsed;
  parsed.segment_number = payload.U64();
  parsed.wal_number = payload.U64();
  parsed.base_checkpoint_id = payload.U64();
  parsed.next_file_number = payload.U64();
  parsed.next_quantum = payload.I64();
  if (!payload.ok()) {
    return fail(ErrorCode::kCorrupt, "malformed manifest payload");
  }
  parsed.manifest_number = manifest.manifest_number;
  manifest = parsed;
  return true;
}

Error PublishManifest(const std::string& directory, const Manifest& manifest,
                      bool sync) {
  const std::string name = ManifestFileName(manifest.manifest_number);
  const std::string path = (fs::path(directory) / name).string();
  Error error = WriteFileAtomic(path, EncodeManifest(manifest), sync);
  if (!error.ok()) return error;
  // CURRENT last: until this rename lands, recovery still sees the
  // previous generation — the crash-point matrix test kills right here.
  const std::string current = (fs::path(directory) / "CURRENT").string();
  return WriteFileAtomic(current, name + "\n", sync);
}

std::optional<std::uint64_t> ReadCurrent(const std::string& directory) {
  std::string contents;
  if (!ReadFileToString((fs::path(directory) / "CURRENT").string(),
                        contents)) {
    return std::nullopt;
  }
  while (!contents.empty() &&
         (contents.back() == '\n' || contents.back() == '\r')) {
    contents.pop_back();
  }
  std::uint64_t number = 0;
  if (!ParseManifestFileName(contents, number)) return std::nullopt;
  return number;
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
    } else if (ParseManifestFileName(name, number)) {
      listing.manifests.emplace_back(number, name);
    } else if (ParseIndexFileName(name, number)) {
      listing.indexes.emplace_back(number, name);
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
  std::sort(listing.manifests.begin(), listing.manifests.end(), by_number);
  std::sort(listing.indexes.begin(), listing.indexes.end(), by_number);
  std::sort(listing.legacy_checkpoints.begin(),
            listing.legacy_checkpoints.end(), by_number);
  return listing;
}

std::optional<Manifest> LoadCurrentManifest(const std::string& directory,
                                            Error* error,
                                            std::string* detail) {
  const auto note = [detail](const std::string& line) {
    if (detail != nullptr) *detail += line + "; ";
  };
  const auto try_load = [&](std::uint64_t number) -> std::optional<Manifest> {
    const std::string name = ManifestFileName(number);
    std::string bytes;
    if (!ReadFileToString((fs::path(directory) / name).string(), bytes)) {
      note(name + ": unreadable");
      return std::nullopt;
    }
    Manifest manifest;
    manifest.manifest_number = number;
    Error decode_error;
    if (!DecodeManifest(bytes, manifest, &decode_error)) {
      note(name + ": " + decode_error.ToString());
      return std::nullopt;
    }
    return manifest;
  };

  if (const auto current = ReadCurrent(directory)) {
    if (auto manifest = try_load(*current)) return manifest;
    note("CURRENT is stale (names " + ManifestFileName(*current) + ")");
  } else {
    note("CURRENT missing or malformed");
  }
  // Stale-CURRENT fallback: newest numbered manifest that decodes.
  const DirectoryListing listing = ListDurabilityFiles(directory);
  for (auto it = listing.manifests.rbegin(); it != listing.manifests.rend();
       ++it) {
    if (auto manifest = try_load(it->first)) return manifest;
  }
  if (error != nullptr) {
    *error = MakeError(ErrorCode::kNoManifest,
                       "no decodable manifest in " + directory);
  }
  return std::nullopt;
}

}  // namespace scprt::durability
