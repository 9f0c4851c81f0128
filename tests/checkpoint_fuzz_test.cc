// Corruption / fuzz hardening for the native snapshot loader
// (durability::LoadEngineSnapshot): truncations, single-bit flips, version
// and kind skew, forged frames with valid CRCs (hostile length fields,
// invalid configs, cross-section inconsistencies) and plain random garbage
// must all make the loader return failure — never crash, abort, leak (this
// suite runs in the ASan+UBSan CI job) or balloon allocation from a forged
// count. Hostile WAL records are fuzzed in wal_test.cc.

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "akg/quantum_aggregate.h"
#include "common/binary_io.h"
#include "common/random.h"
#include "detect/snapshot_io.h"
#include "durability/backend.h"
#include "engine/parallel_detector.h"
#include "stream/quantizer.h"
#include "stream/synthetic.h"

namespace scprt {
namespace {

namespace sio = detect::snapshot_io;
using engine::ParallelDetector;

struct Fixture {
  stream::SyntheticTrace trace;
  detect::DetectorConfig config;
  std::string full_bytes;  // a valid full snapshot
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    stream::SyntheticConfig tc;
    tc.seed = 7;
    tc.num_messages = 6'000;
    tc.num_users = 1'200;
    tc.background_vocab = 1'500;
    tc.num_events = 3;
    f->trace = GenerateSyntheticTrace(tc);
    f->config.quantum_size = 100;
    f->config.akg.window_length = 8;

    ParallelDetector detector({f->config, 1}, &f->trace.dictionary);
    const std::vector<stream::Quantum> quanta =
        stream::SplitIntoQuanta(f->trace.messages, f->config.quantum_size);
    for (std::size_t q = 0; q < 25; ++q) detector.ProcessQuantum(quanta[q]);
    std::stringstream full;
    EXPECT_TRUE(durability::SaveSnapshot(detector, full).ok());
    f->full_bytes = full.str();
    return f;
  }();
  return *fixture;
}

std::unique_ptr<ParallelDetector> LoadBytes(
    const std::string& bytes,
    const text::KeywordDictionary* dictionary =
        &SharedFixture().trace.dictionary) {
  std::stringstream in(bytes);
  return durability::LoadEngineSnapshot(in, dictionary, 1);
}

constexpr std::size_t kHeaderSize = 25;
// The config section's last byte; a version-4 config carried one more.
constexpr std::size_t kConfigEnd = kHeaderSize + 62;

// Recomputes the header's payload-length and payload-CRC fields after an
// edit of the payload.
void RefreshPayloadFields(std::string& bytes) {
  const std::uint64_t length = bytes.size() - kHeaderSize;
  for (int i = 0; i < 8; ++i) {
    bytes[13 + i] = static_cast<char>(length >> (8 * i));
  }
  const std::uint32_t crc =
      Crc32(std::string_view(bytes).substr(kHeaderSize));
  for (int i = 0; i < 4; ++i) {
    bytes[21 + i] = static_cast<char>(crc >> (8 * i));
  }
}

// The typed reason the loader gives for `bytes` (kNone on success).
durability::ErrorCode LoadError(const std::string& bytes) {
  std::stringstream in(bytes);
  durability::Error error;
  const auto engine = durability::LoadEngineSnapshot(
      in, &SharedFixture().trace.dictionary, 1, nullptr, &error);
  EXPECT_EQ(engine == nullptr, !error.ok());
  return error.code;
}

TEST(CheckpointFuzzTest, ValidFixtureLoads) {
  EXPECT_NE(LoadBytes(SharedFixture().full_bytes), nullptr);
}

TEST(CheckpointFuzzTest, EveryTruncationIsRejected) {
  const std::string& bytes = SharedFixture().full_bytes;
  // Every header truncation, then a stride through the payload, then the
  // last bytes (the CRC protects all of it — any shortening must fail).
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 64 && n < bytes.size(); ++n) cuts.push_back(n);
  for (std::size_t n = 64; n < bytes.size(); n += 211) cuts.push_back(n);
  for (std::size_t back = 1; back <= 8 && back < bytes.size(); ++back) {
    cuts.push_back(bytes.size() - back);
  }
  for (std::size_t cut : cuts) {
    EXPECT_EQ(LoadBytes(bytes.substr(0, cut)), nullptr)
        << "truncation at " << cut << " of " << bytes.size();
  }
}

TEST(CheckpointFuzzTest, EverySingleBitFlipIsRejected) {
  const std::string& bytes = SharedFixture().full_bytes;
  // Dense sweep over the frame header and the payload head, strided sweep
  // over the rest; CRC-32 detects any single-bit error. Offset 8 is the
  // version field's low byte: every single-bit flip of version 5 lands on
  // another version, which no loader accepts, so no offset is exempt.
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 256 && i < bytes.size(); ++i) {
    offsets.push_back(i);
  }
  for (std::size_t i = 256; i < bytes.size(); i += 97) offsets.push_back(i);
  for (std::size_t offset : offsets) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupt[offset]) ^ (1u << (offset % 8)));
    EXPECT_EQ(LoadBytes(corrupt), nullptr)
        << "bit flip at byte " << offset << " survived";
  }
}

TEST(CheckpointFuzzTest, VersionAndKindSkewAreRejected) {
  const std::string& bytes = SharedFixture().full_bytes;
  // The version field is the little-endian u32 at offset 8 (after the
  // 8-byte magic). Version 1 was the replay era; versions 2-4 held the
  // derived AKG state that version 5 dropped; the last is a future one.
  // Each is typed skew (take a fresh snapshot), never damage.
  for (const std::uint32_t version :
       {1u, 2u, 3u, 4u, sio::kFormatVersion + 1}) {
    std::string skewed = bytes;
    skewed[8] = static_cast<char>(version);
    EXPECT_EQ(LoadError(skewed), durability::ErrorCode::kVersionSkew)
        << "version " << version;
  }
  // The kind byte at offset 12: 2 was the retired delta-file frame, and
  // no kind but a full snapshot loads. The CRC covers only the payload, so
  // the kind check alone must refuse these.
  for (const char kind : {char(0), char(2), char(3)}) {
    std::string relabelled = bytes;
    relabelled[12] = kind;
    std::stringstream in(relabelled);
    durability::Error error;
    EXPECT_EQ(durability::LoadEngineSnapshot(
                  in, &SharedFixture().trace.dictionary, 1, nullptr, &error),
              nullptr)
        << "frame kind " << int(kind) << " accepted";
    EXPECT_EQ(error.code, durability::ErrorCode::kKindMismatch);
  }
}

TEST(CheckpointFuzzTest, VersionFourFrameIsVersionSkew) {
  // A version-4 frame: its config ended in a flag byte (0, or 1 from a
  // build with the retired weighted Min-Hash mode), and its AKG section
  // carried the derived state version 5 dropped. Behind a valid CRC either
  // must fail as version skew (take a fresh snapshot), not as damage, and
  // must not crash.
  for (const char flag : {char(0), char(1)}) {
    std::string v4 = SharedFixture().full_bytes;
    v4[8] = 4;
    v4.insert(kConfigEnd, 1, flag);
    RefreshPayloadFields(v4);
    EXPECT_EQ(LoadError(v4), durability::ErrorCode::kVersionSkew)
        << "flag byte " << int(flag);
  }
  // The same byte in a version-5 frame is damage: the config has none.
  std::string flagged = SharedFixture().full_bytes;
  flagged.insert(kConfigEnd, 1, char(0));
  RefreshPayloadFields(flagged);
  EXPECT_EQ(LoadError(flagged), durability::ErrorCode::kCorrupt);
}

TEST(CheckpointFuzzTest, ForgedLengthFieldsDoNotAllocate) {
  // Hostile payloads with a correct CRC: the parser's bounds checks are the
  // only defense. A forged element count must fail before any reservation.
  const auto forge = [](const std::function<void(BinaryWriter&)>& body) {
    BinaryWriter payload;
    body(payload);
    std::stringstream out;
    EXPECT_TRUE(
        sio::WriteFrame(out, payload.data()));
    return out.str();
  };

  detect::DetectorConfig config;
  config.quantum_size = 100;
  config.akg.window_length = 8;

  // Giant pending-message count right after a valid config.
  EXPECT_EQ(LoadBytes(forge([&](BinaryWriter& w) {
              sio::WriteConfig(w, config);
              w.I64(5);                      // next_index
              w.U64(0xFFFF'FFFF'FFFFull);    // pending count
            })),
            nullptr);
  // Giant keyword count inside one message.
  EXPECT_EQ(LoadBytes(forge([&](BinaryWriter& w) {
              sio::WriteConfig(w, config);
              w.I64(5);
              w.U64(1);            // one pending message
              w.U32(1);            // user
              w.U64(0);            // seq
              w.U32(0);            // event id
              w.U32(0xFFFF'FFFF);  // keyword count
            })),
            nullptr);
  // Config that would trip constructor preconditions.
  for (const auto& breaker : std::vector<std::function<void(
           detect::DetectorConfig&)>>{
           [](auto& c) { c.quantum_size = 0; },
           [](auto& c) { c.akg.window_length = 0; },
           [](auto& c) { c.akg.high_state_threshold = 0; },
           [](auto& c) { c.akg.ec_threshold = 0.0; },
           [](auto& c) { c.akg.ec_threshold = 1.5; },
           [](auto& c) {
             c.akg.ec_threshold = std::numeric_limits<double>::quiet_NaN();
           },
       }) {
    detect::DetectorConfig bad = config;
    breaker(bad);
    EXPECT_EQ(LoadBytes(forge([&](BinaryWriter& w) {
                sio::WriteConfig(w, bad);
              })),
              nullptr);
  }
}

// A CRC-valid detector snapshot forged field by field, mirroring
// detect::EventDetector::SaveState's section order. By default it holds
// a one-quantum window (quantum 0: keywords 1, 2 and 3, each used by user
// 9) and an AKG of members {1, 2} joined by edge {1, 2} — in the
// correlations and the maintainer's graph — with signatures for both. It
// loads; each field below forges one fault.
struct ForgedSnapshot {
  using Pair = std::pair<KeywordId, KeywordId>;

  // The AKG builder's clock: the newest quantum of the id-set history.
  QuantumIndex clock = 0;
  // The automaton's members, in section order; each takes its last-seen
  // stamp from the history (keywords 1-3 are in it).
  std::vector<KeywordId> members = {1, 2};
  // The correlations' edges, in section order.
  std::vector<Pair> correlations = {{1, 2}};
  // The maintainer's graph edges; the distinct correlations' edges when
  // unset.
  std::optional<std::vector<Pair>> maintainer_edges = std::nullopt;
  // The keywords with a signature, in section order.
  std::vector<KeywordId> signed_keywords = {1, 2};
  // A last-bursty stamp for keyword 3, which is not a member.
  bool orphan_stamp = false;

  std::string Bytes() const {
    detect::DetectorConfig config;
    config.quantum_size = 100;
    config.akg.window_length = 8;
    BinaryWriter w;
    sio::WriteConfig(w, config);
    w.I64(1);  // next_index
    w.U64(0);  // no pending messages
    w.I64(clock);  // AkgBuilder clock
    w.U64(config.akg.window_length);
    w.U32(1);  // one quantum of history: keywords 1, 2, 3, user 9
    w.U64(3);
    for (KeywordId keyword : {1u, 2u, 3u}) w.U64(akg::PackPair(keyword, 9));
    const std::vector<KeywordId> stamped =
        orphan_stamp ? std::vector<KeywordId>{1, 2, 3}
                     : std::vector<KeywordId>{1, 2};
    w.U64(stamped.size());  // last_bursty
    for (KeywordId keyword : stamped) {
      w.U32(keyword);
      w.I64(0);
    }
    w.U64(members.size());
    for (KeywordId keyword : members) w.U32(keyword);
    w.U64(signed_keywords.size());
    for (KeywordId keyword : signed_keywords) {
      w.U32(keyword);
      w.U32(1);
      w.U64(1000 + keyword);
    }
    w.U64(correlations.size());
    for (const auto& [u, v] : correlations) {
      w.U32(u);
      w.U32(v);
      w.F64(0.5);
    }
    for (int i = 0; i < 7; ++i) w.U64(0);  // AkgQuantumStats
    // Maintainer: graph, empty cluster set, clock, stats.
    std::set<Pair> edges;
    for (const auto& [u, v] : maintainer_edges.value_or(correlations)) {
      edges.insert(std::minmax(u, v));
    }
    std::set<KeywordId> nodes;
    for (const auto& [u, v] : edges) nodes.insert({u, v});
    w.U64(nodes.size());
    for (KeywordId node : nodes) w.U32(node);
    w.U64(edges.size());
    for (const auto& [u, v] : edges) {
      w.U32(u);
      w.U32(v);
    }
    w.U64(0);  // cluster next_id
    w.U64(0);  // cluster count
    w.I64(0);
    for (int i = 0; i < 8; ++i) w.U64(0);  // MaintenanceStats
    w.U64(0);  // rank tracker: no histories
    w.U64(0);  // reported set: empty
    std::stringstream out;
    EXPECT_TRUE(sio::WriteFrame(out, w.data()));
    return out.str();
  }
};

TEST(CheckpointFuzzTest, ForgedSnapshotBaselineLoads) {
  EXPECT_NE(LoadBytes(ForgedSnapshot{}.Bytes(), nullptr), nullptr);
  // Three members joined by two ascending correlations load too: the
  // baseline of the correlation cases below.
  EXPECT_NE(LoadBytes(ForgedSnapshot{.members = {1, 2, 3},
                                     .correlations = {{1, 2}, {1, 3}},
                                     .signed_keywords = {1, 2, 3}}
                          .Bytes(),
                      nullptr),
            nullptr);
}

TEST(CheckpointFuzzTest, ForgedSnapshotWithoutSignaturesIsRejected) {
  // The AKG edge's endpoints have no signatures: if the loader accepted
  // it, the next quantum's lazy re-validation would look their signatures
  // up and abort. The edge is in every section that holds edges, so the
  // signature check is the one that rejects it.
  EXPECT_EQ(LoadBytes(ForgedSnapshot{.signed_keywords = {}}.Bytes(), nullptr),
            nullptr)
      << "signature-less AKG edge accepted — would crash on next quantum";
  // The signature table is keyword-ascending, as Save writes it: a section
  // out of that order, or one that signs a keyword twice, is refused.
  for (const std::vector<KeywordId>& keywords :
       {std::vector<KeywordId>{2, 1}, std::vector<KeywordId>{1, 1, 2}}) {
    EXPECT_EQ(
        LoadBytes(ForgedSnapshot{.signed_keywords = keywords}.Bytes(), nullptr),
        nullptr)
        << "signature section out of keyword order accepted";
  }
}

TEST(CheckpointFuzzTest, MaintainerEdgeWithoutCorrelationIsRejected) {
  // The maintainer's graph is the AKG's edge set, so an edge there with no
  // correlation would fail the builder's edge-count check on the next
  // quantum.
  EXPECT_EQ(LoadBytes(ForgedSnapshot{.correlations = {},
                                     .maintainer_edges = {{{1, 2}}}}
                          .Bytes(),
                      nullptr),
            nullptr)
      << "maintainer edge without an AKG correlation accepted";
  // The same fault the other way round: a correlated edge the maintainer
  // does not hold.
  EXPECT_EQ(
      LoadBytes(ForgedSnapshot{.maintainer_edges = {{}}}.Bytes(), nullptr),
      nullptr)
      << "AKG correlation without a maintainer edge accepted";
}

TEST(CheckpointFuzzTest, MemberHeldByNoHistoryEntryIsRejected) {
  // A member's last-seen stamp is the newest history entry that holds it;
  // keyword 4 is in none, so no run wrote it as a member.
  EXPECT_EQ(
      LoadBytes(ForgedSnapshot{.members = {1, 2, 4}}.Bytes(), nullptr),
      nullptr)
      << "member outside the window accepted";
}

TEST(CheckpointFuzzTest, ForgedCorrelationsAreRejected) {
  // The correlations are the AKG's edges as Save writes them: between two
  // members, each pair ascending, the list strictly ascending. Each forged
  // list is also the maintainer's graph and every endpoint is signed, so
  // ForgedSnapshotBaselineLoads shows the list is the only fault.
  for (const ForgedSnapshot& forged : {
           // An endpoint that is not a member (keyword 3 is in the window).
           ForgedSnapshot{.correlations = {{1, 2}, {1, 3}},
                          .signed_keywords = {1, 2, 3}},
           // A pair written high endpoint first.
           ForgedSnapshot{.members = {1, 2, 3},
                          .correlations = {{2, 1}},
                          .signed_keywords = {1, 2, 3}},
           // Out of order, and repeated.
           ForgedSnapshot{.members = {1, 2, 3},
                          .correlations = {{1, 3}, {1, 2}},
                          .signed_keywords = {1, 2, 3}},
           ForgedSnapshot{.members = {1, 2, 3},
                          .correlations = {{1, 2}, {1, 2}},
                          .signed_keywords = {1, 2, 3}},
       }) {
    EXPECT_EQ(LoadError(forged.Bytes()), durability::ErrorCode::kCorrupt)
        << forged.correlations.size() << " correlations, first "
        << forged.correlations[0].first << "-"
        << forged.correlations[0].second;
  }
}

TEST(CheckpointFuzzTest, OrphanLastBurstyStampIsRejected) {
  // The node automaton holds a last-bursty stamp for keyword 3, tracked
  // but not an AKG member. No run writes one (eviction drops a member's
  // stamp with it), so the loader refuses it instead of keeping orphan
  // state. ForgedSnapshotBaselineLoads shows the stamp is the only fault.
  EXPECT_EQ(LoadBytes(ForgedSnapshot{.orphan_stamp = true}.Bytes(), nullptr),
            nullptr)
      << "last-bursty stamp of a non-member accepted";
}

TEST(CheckpointFuzzTest, ForgedClockIsRejected) {
  // The members' last-seen stamps are counted back from the builder's
  // clock, so a clock below the history's depth (a quantum index below 0)
  // or one that leaves no index for the next quantum is not one any run
  // wrote; it is refused before any stamp is computed.
  // ForgedSnapshotBaselineLoads shows the clock is the only fault.
  for (const QuantumIndex clock :
       {std::numeric_limits<QuantumIndex>::max(),
        std::numeric_limits<QuantumIndex>::min(), QuantumIndex{-1}}) {
    EXPECT_EQ(LoadError(ForgedSnapshot{.clock = clock}.Bytes()),
              durability::ErrorCode::kCorrupt)
        << "clock " << clock;
  }
  // A later clock loads.
  EXPECT_NE(LoadBytes(ForgedSnapshot{.clock = 5}.Bytes(), nullptr), nullptr);
}

TEST(CheckpointFuzzTest, RandomGarbageIsRejected) {
  Rng rng(0xFA11);
  for (int round = 0; round < 200; ++round) {
    std::string garbage(rng.UniformInt(4'096), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(256));
    }
    EXPECT_EQ(LoadBytes(garbage), nullptr);
  }
  // Same, but behind a valid frame header (forged CRC over garbage).
  for (int round = 0; round < 100; ++round) {
    std::string payload(1 + rng.UniformInt(2'048), '\0');
    for (char& c : payload) {
      c = static_cast<char>(rng.UniformInt(256));
    }
    std::stringstream out;
    ASSERT_TRUE(sio::WriteFrame(out, payload));
    EXPECT_EQ(LoadBytes(out.str()), nullptr);
  }
}

// ---- IngestState trailing section (format version 3) -------------------
//
// The section rides inside the CRC-protected payload, so random damage is
// already covered by the sweeps above; the interesting adversary forges a
// frame with a *valid* outer CRC around a hostile section, attacking the
// section's own magic/version/length/CRC fields.

// A full snapshot carrying a real IngestState.
std::string IngestSnapshotBytes() {
  const Fixture& f = SharedFixture();
  ParallelDetector detector({f.config}, &f.trace.dictionary);
  const std::vector<stream::Quantum> quanta =
      stream::SplitIntoQuanta(f.trace.messages, f.config.quantum_size);
  for (std::size_t q = 0; q < 10; ++q) detector.ProcessQuantum(quanta[q]);

  sio::IngestState state;
  BinaryWriter dictionary_blob;
  f.trace.dictionary.SaveState(dictionary_blob);
  state.dictionary_state = dictionary_blob.TakeData();
  state.admission_policy = 2;
  state.admission_seed = 0xFEED;
  state.sample_keep_fraction = 0.25;
  state.cursor_record = 1'000;
  state.cursor_byte = 123'456;
  state.next_seq = 1'000;
  state.quanta_cut = 10;
  std::stringstream out;
  EXPECT_TRUE(durability::SaveSnapshot(detector, out, nullptr, &state).ok());
  return out.str();
}

TEST(CheckpointFuzzTest, IngestSectionRoundTripsAndRejectsDamage) {
  const std::string bytes = IngestSnapshotBytes();
  {
    std::stringstream in(bytes);
    sio::IngestState state;
    bool present = false;
    auto detector = durability::LoadEngineSnapshot(
        in, &SharedFixture().trace.dictionary, 1, nullptr, nullptr, &state,
        &present);
    ASSERT_NE(detector, nullptr);
    ASSERT_TRUE(present);
    EXPECT_EQ(state.admission_seed, 0xFEEDu);
    EXPECT_EQ(state.cursor_record, 1'000u);
    EXPECT_EQ(state.cursor_byte, 123'456u);
    text::KeywordDictionary dictionary;
    BinaryReader blob(state.dictionary_state);
    EXPECT_TRUE(dictionary.RestoreState(blob));
    EXPECT_EQ(dictionary.size(), SharedFixture().trace.dictionary.size());
  }
  // Truncations and bit flips across the section (it sits at the payload
  // tail) — the outer CRC must reject every one.
  for (std::size_t back = 1; back < 192 && back < bytes.size(); back += 7) {
    EXPECT_EQ(LoadBytes(bytes.substr(0, bytes.size() - back)), nullptr);
  }
  for (std::size_t back = 1; back < 192 && back < bytes.size(); back += 5) {
    std::string corrupt = bytes;
    const std::size_t offset = bytes.size() - back;
    corrupt[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupt[offset]) ^ (1u << (back % 8)));
    EXPECT_EQ(LoadBytes(corrupt), nullptr);
  }
}

TEST(CheckpointFuzzTest, ForgedIngestSectionFieldsAreRejected) {
  // Hostile sections behind a *valid* frame CRC: the section parser's own
  // framing (magic, version, length, CRC) is the only defense.
  ParallelDetector reference({SharedFixture().config},
                             &SharedFixture().trace.dictionary);
  BinaryWriter base;
  sio::WriteConfig(base, SharedFixture().config);
  reference.SaveState(base);

  const auto forge = [&](const std::function<void(BinaryWriter&)>& section)
      -> std::string {
    BinaryWriter payload;
    payload.Bytes(base.data().data(), base.size());
    section(payload);
    std::stringstream out;
    EXPECT_TRUE(
        sio::WriteFrame(out, payload.data()));
    return out.str();
  };
  // The typed reason the loader gives for `bytes` (kNone on success).
  const auto load_error = [](const std::string& bytes) {
    std::stringstream in(bytes);
    durability::Error error;
    const auto engine = durability::LoadEngineSnapshot(
        in, &SharedFixture().trace.dictionary, 1, nullptr, &error);
    EXPECT_EQ(engine == nullptr, !error.ok());
    return error.code;
  };
  const auto expect_rejected = [&](const std::string& bytes,
                                   const char* what) {
    EXPECT_NE(load_error(bytes), durability::ErrorCode::kNone) << what;
  };

  // A minimal valid section body, reused by several forgeries.
  BinaryWriter body;
  body.U64(0);        // dictionary base
  body.U64(0);        // empty dictionary blob
  body.U8(0);         // policy
  body.U64(0);        // seed
  body.F64(0.5);      // fraction
  for (int i = 0; i < 6; ++i) body.U64(0);  // cursor + counters

  expect_rejected(forge([&](BinaryWriter& w) {
                    w.U32(0xBAADF00D);  // wrong section magic
                    w.U32(1);
                    w.U64(body.size());
                    w.U32(Crc32(body.data()));
                    w.Bytes(body.data().data(), body.size());
                  }),
                  "bad section magic");
  EXPECT_EQ(load_error(forge([&](BinaryWriter& w) {
              w.U32(0x53474E49);  // "INGS"
              w.U32(99);          // future section version
              w.U64(body.size());
              w.U32(Crc32(body.data()));
              w.Bytes(body.data().data(), body.size());
            })),
            durability::ErrorCode::kVersionSkew)
      << "future section version must be typed skew";
  expect_rejected(forge([&](BinaryWriter& w) {
                    w.U32(0x53474E49);
                    w.U32(1);
                    w.U64(0xFFFF'FFFF'FFFFull);  // forged length
                    w.U32(Crc32(body.data()));
                    w.Bytes(body.data().data(), body.size());
                  }),
                  "forged section length");
  expect_rejected(forge([&](BinaryWriter& w) {
                    w.U32(0x53474E49);
                    w.U32(1);
                    w.U64(body.size());
                    w.U32(Crc32(body.data()) ^ 1);  // wrong section CRC
                    w.Bytes(body.data().data(), body.size());
                  }),
                  "section CRC mismatch");
  expect_rejected(forge([&](BinaryWriter& w) {
                    // Giant dictionary-blob length inside a section whose
                    // framing is otherwise valid.
                    BinaryWriter hostile;
                    hostile.U64(0);  // dictionary base
                    hostile.U64(0xFFFF'FFFF'FFFFull);
                    w.U32(0x53474E49);
                    w.U32(1);
                    w.U64(hostile.size());
                    w.U32(Crc32(hostile.data()));
                    w.Bytes(hostile.data().data(), hostile.size());
                  }),
                  "forged dictionary blob length");
  expect_rejected(forge([&](BinaryWriter& w) {
                    // Out-of-range keep fraction (feeds a controller
                    // precondition on resume).
                    BinaryWriter hostile;
                    hostile.U64(0);  // dictionary base
                    hostile.U64(0);  // empty dictionary blob
                    hostile.U8(0);
                    hostile.U64(0);
                    hostile.F64(7.5);
                    for (int i = 0; i < 6; ++i) hostile.U64(0);
                    w.U32(0x53474E49);
                    w.U32(1);
                    w.U64(hostile.size());
                    w.U32(Crc32(hostile.data()));
                    w.Bytes(hostile.data().data(), hostile.size());
                  }),
                  "hostile keep fraction");
  expect_rejected(forge([&](BinaryWriter& w) {
                    w.U32(0x53474E49);
                    w.U32(1);
                    w.U64(body.size());
                    w.U32(Crc32(body.data()));
                    w.Bytes(body.data().data(), body.size());
                    w.U8(0);  // trailing garbage after a valid section
                  }),
                  "trailing garbage");
  // Random garbage where the section should be.
  Rng rng(0x1265);
  for (int round = 0; round < 100; ++round) {
    std::string garbage(1 + rng.UniformInt(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.UniformInt(256));
    expect_rejected(forge([&](BinaryWriter& w) {
                      w.Bytes(garbage.data(), garbage.size());
                    }),
                    "random section garbage");
  }
}

}  // namespace
}  // namespace scprt
