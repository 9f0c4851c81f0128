#include "detect/snapshot_io.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

namespace scprt::detect::snapshot_io {

namespace {

// Hard sanity ceilings for config values arriving from disk. Generous for
// any real deployment; tight enough that a corrupt config cannot drive
// absurd allocations before the first quantum is processed.
constexpr std::uint64_t kMaxQuantumSize = 1u << 30;
constexpr std::uint64_t kMaxWindowLength = 1u << 24;
constexpr std::uint64_t kMaxMinHashSize = 1u << 20;

// The frame kind byte: every frame is a full snapshot. Kind 2 was the
// retired delta-file frame; any value but this one fails as kKindMismatch.
constexpr std::uint8_t kFullFrameKind = 1;

// IngestState trailing-section framing ("INGS" little-endian) and its own
// version counter, bumped independently of the container version.
constexpr std::uint32_t kIngestSectionMagic = 0x53474E49;
constexpr std::uint32_t kIngestSectionVersion = 1;

using durability::ErrorCode;

void SetError(ErrorCode* error, ErrorCode value) {
  if (error != nullptr) *error = value;
}

// Reads and verifies one frame. Fails with kIo on an unreadable or empty
// stream, kBadMagic, kVersionSkew, kKindMismatch, or kCorrupt on
// truncation or CRC failure; the outputs are only written on success.
bool ReadFrame(std::istream& in, std::string& payload,
               std::uint64_t* checkpoint_id, ErrorCode* error) {
  SetError(error, ErrorCode::kCorrupt);
  char header_bytes[25];
  if (!in.read(header_bytes, sizeof(header_bytes))) {
    // An unreadable or empty stream is an I/O problem; a stream that
    // yielded some bytes but not a whole header is a truncated file.
    if (in.gcount() == 0) SetError(error, ErrorCode::kIo);
    return false;
  }
  BinaryReader header(std::string_view(header_bytes, sizeof(header_bytes)));
  char magic[8];
  if (!header.ReadBytes(magic, sizeof(magic)) ||
      std::char_traits<char>::compare(magic, kMagic, sizeof(kMagic)) != 0) {
    SetError(error, ErrorCode::kBadMagic);
    return false;
  }
  const std::uint32_t version = header.U32();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    SetError(error, ErrorCode::kVersionSkew);
    return false;
  }
  if (header.U8() != kFullFrameKind) {
    SetError(error, ErrorCode::kKindMismatch);
    return false;
  }
  const std::uint64_t length = header.U64();
  const std::uint32_t expected_crc = header.U32();
  // Read exactly `length` bytes; a short read is a truncated file. The
  // length field itself is untrusted, so grow the buffer in bounded chunks
  // rather than pre-allocating a forged size.
  std::string body;
  constexpr std::uint64_t kChunk = 1u << 20;
  while (body.size() < length) {
    const std::uint64_t want =
        std::min<std::uint64_t>(kChunk, length - body.size());
    const std::size_t old_size = body.size();
    body.resize(old_size + want);
    if (!in.read(body.data() + old_size,
                 static_cast<std::streamsize>(want))) {
      return false;
    }
  }
  if (Crc32(body) != expected_crc) return false;
  payload = std::move(body);
  if (checkpoint_id != nullptr) *checkpoint_id = expected_crc;
  SetError(error, ErrorCode::kNone);
  return true;
}

// Parses and validates a configuration. Fails if malformed or if any value
// would violate a constructor precondition (the loader must never feed a
// corrupt config into SCPRT_CHECK).
bool ReadConfig(BinaryReader& in, DetectorConfig& config) {
  DetectorConfig parsed;
  parsed.quantum_size = in.U64();
  parsed.akg.high_state_threshold = in.U32();
  parsed.akg.ec_threshold = in.F64();
  parsed.akg.window_length = in.U64();
  parsed.akg.minhash_size = in.U64();
  const std::uint8_t ec_mode = in.U8();
  parsed.akg.seed = in.U64();
  parsed.min_event_nodes = in.U64();
  parsed.min_rank_margin = in.F64();
  const std::uint8_t require_noun = in.U8();
  // Constructor preconditions plus sanity ceilings — a corrupt config must
  // fail the load, not abort the process or reserve gigabytes.
  if (!in.ok() || parsed.quantum_size < 1 ||
      parsed.quantum_size > kMaxQuantumSize ||
      parsed.akg.high_state_threshold < 1 ||
      !(parsed.akg.ec_threshold > 0.0) || !(parsed.akg.ec_threshold <= 1.0) ||
      parsed.akg.window_length < 1 ||
      parsed.akg.window_length > kMaxWindowLength ||
      parsed.akg.minhash_size > kMaxMinHashSize || ec_mode > 2 ||
      !std::isfinite(parsed.min_rank_margin) || require_noun > 1) {
    in.Fail();
    return false;
  }
  parsed.akg.ec_mode = static_cast<akg::EcMode>(ec_mode);
  parsed.require_noun = require_noun != 0;
  config = parsed;
  return true;
}

}  // namespace

bool WriteFrame(std::ostream& out, const std::string& payload,
                std::uint64_t* checkpoint_id) {
  BinaryWriter header;
  header.Bytes(kMagic, sizeof(kMagic));
  header.U32(kFormatVersion);
  header.U8(kFullFrameKind);
  header.U64(payload.size());
  const std::uint32_t crc = Crc32(payload);
  header.U32(crc);
  out.write(header.data().data(),
            static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (checkpoint_id != nullptr) *checkpoint_id = crc;
  return static_cast<bool>(out);
}

void WriteIngestSection(BinaryWriter& out, const IngestState& state) {
  BinaryWriter body;
  body.U64(state.dictionary_base);
  body.U64(state.dictionary_state.size());
  body.Bytes(state.dictionary_state.data(), state.dictionary_state.size());
  body.U8(state.admission_policy);
  body.U64(state.admission_seed);
  body.F64(state.sample_keep_fraction);
  body.U64(state.cursor_record);
  body.U64(state.cursor_byte);
  body.U64(state.next_seq);
  body.U64(state.quanta_cut);
  body.U64(state.records_read);
  body.U64(state.shed);
  out.U32(kIngestSectionMagic);
  out.U32(kIngestSectionVersion);
  out.U64(body.size());
  out.U32(Crc32(body.data()));
  out.Bytes(body.data().data(), body.size());
}

bool ReadIngestSection(BinaryReader& in, IngestState& state,
                       ErrorCode* error) {
  SetError(error, ErrorCode::kCorrupt);
  if (in.U32() != kIngestSectionMagic) {
    in.Fail();
    return false;
  }
  const std::uint32_t version = in.U32();
  const std::uint64_t length = in.U64();
  const std::uint32_t crc = in.U32();
  if (!in.ok() || !in.CheckLength(length, 1)) return false;
  if (version != kIngestSectionVersion) {
    // The length field lets an old reader skip a future section, but this
    // codebase has exactly one reader — reject as skew, like the container.
    in.Fail();
    SetError(error, ErrorCode::kVersionSkew);
    return false;
  }
  std::string body(length, '\0');
  if (!in.ReadBytes(body.data(), body.size())) return false;
  if (Crc32(body) != crc) {
    in.Fail();
    return false;
  }
  BinaryReader section(body);
  IngestState parsed;
  parsed.dictionary_base = section.U64();
  const std::uint64_t dict_bytes = section.U64();
  if (!section.CheckLength(dict_bytes, 1)) {
    in.Fail();
    return false;
  }
  parsed.dictionary_state.resize(dict_bytes);
  if (!section.ReadBytes(parsed.dictionary_state.data(), dict_bytes)) {
    in.Fail();
    return false;
  }
  parsed.admission_policy = section.U8();
  parsed.admission_seed = section.U64();
  parsed.sample_keep_fraction = section.F64();
  parsed.cursor_record = section.U64();
  parsed.cursor_byte = section.U64();
  parsed.next_seq = section.U64();
  parsed.quanta_cut = section.U64();
  parsed.records_read = section.U64();
  parsed.shed = section.U64();
  // The keep fraction feeds an AdmissionController precondition, and the
  // section must end exactly where its length said it would.
  if (!section.ok() || section.remaining() != 0 ||
      parsed.admission_policy > 2 ||
      !(parsed.sample_keep_fraction > 0.0) ||
      !(parsed.sample_keep_fraction <= 1.0)) {
    in.Fail();
    return false;
  }
  state = std::move(parsed);
  SetError(error, ErrorCode::kNone);
  return true;
}

void WriteConfig(BinaryWriter& out, const DetectorConfig& config) {
  out.U64(config.quantum_size);
  out.U32(config.akg.high_state_threshold);
  out.F64(config.akg.ec_threshold);
  out.U64(config.akg.window_length);
  out.U64(config.akg.minhash_size);
  out.U8(static_cast<std::uint8_t>(config.akg.ec_mode));
  out.U64(config.akg.seed);
  out.U64(config.min_event_nodes);
  out.F64(config.min_rank_margin);
  out.U8(config.require_noun ? 1 : 0);
}

void WriteMessages(BinaryWriter& out,
                   const std::vector<stream::Message>& messages) {
  out.U64(messages.size());
  for (const stream::Message& m : messages) {
    out.U32(m.user);
    out.U64(m.seq);
    out.U32(static_cast<std::uint32_t>(m.event_id));
    out.U32(static_cast<std::uint32_t>(m.keywords.size()));
    for (KeywordId k : m.keywords) out.U32(k);
  }
}

bool ReadMessages(BinaryReader& in, std::vector<stream::Message>& messages) {
  messages.clear();
  const std::uint64_t count = in.U64();
  // A message is at least user + seq + event_id + keyword count.
  if (!in.CheckLength(count, 4 + 8 + 4 + 4)) return false;
  messages.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    stream::Message m;
    m.user = in.U32();
    m.seq = in.U64();
    m.event_id = static_cast<std::int32_t>(in.U32());
    const std::uint32_t keywords = in.U32();
    if (!in.CheckLength(keywords, 4)) return false;
    m.keywords.reserve(keywords);
    for (std::uint32_t j = 0; j < keywords; ++j) {
      m.keywords.push_back(in.U32());
    }
    if (!in.ok()) return false;
    messages.push_back(std::move(m));
  }
  return true;
}

bool ReadFullSnapshot(
    std::istream& in,
    const std::function<bool(BinaryReader&, const DetectorConfig&)>&
        restore_state,
    std::uint64_t* checkpoint_id, ErrorCode* error, IngestState* ingest,
    bool* ingest_present) {
  if (ingest_present != nullptr) *ingest_present = false;
  std::string payload;
  std::uint64_t id = 0;
  if (!ReadFrame(in, payload, &id, error)) return false;
  SetError(error, ErrorCode::kCorrupt);
  BinaryReader reader(payload);
  DetectorConfig config;
  if (!ReadConfig(reader, config)) return false;
  if (!restore_state(reader, config)) return false;
  // A snapshot may carry a trailing IngestState section; a bare detector
  // save ends here.
  bool have_ingest = false;
  if (reader.remaining() != 0) {
    IngestState parsed;
    if (!ReadIngestSection(reader, parsed, error)) return false;
    SetError(error, ErrorCode::kCorrupt);
    if (ingest != nullptr) *ingest = std::move(parsed);
    have_ingest = true;
  }
  if (reader.remaining() != 0) return false;
  if (ingest_present != nullptr) *ingest_present = have_ingest;
  if (checkpoint_id != nullptr) *checkpoint_id = id;
  SetError(error, ErrorCode::kNone);
  return true;
}

}  // namespace scprt::detect::snapshot_io
