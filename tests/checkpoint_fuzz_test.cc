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
  // version field's low byte: every single-bit flip of the current version
  // lands on another version, which no loader accepts, so no offset is
  // exempt.
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
  // 8-byte magic). Every older version (1 was the replay era, 2-5 laid the
  // state out differently) and the next, future one is typed skew (take a
  // fresh snapshot), never damage.
  std::vector<std::uint32_t> versions;
  for (std::uint32_t v = 0; v < sio::kFormatVersion; ++v) {
    versions.push_back(v);
  }
  versions.push_back(sio::kFormatVersion + 1);
  for (const std::uint32_t version : versions) {
    std::string skewed = bytes;
    for (int i = 0; i < 4; ++i) {
      skewed[8 + i] = static_cast<char>(version >> (8 * i));
    }
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
  // The same byte in a current frame is damage: the config has none.
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
// 9) and an AKG of members {1, 2}, each signed, joined by edge {1, 2}. It
// loads; each field below forges one fault.
struct ForgedSnapshot {
  using Pair = std::pair<KeywordId, KeywordId>;

  // The quantizer's clock, the state's only one: the next quantum's index.
  // The history's one entry is quantum next_index - 1.
  QuantumIndex next_index = 1;
  // The automaton's member rows, in section order; each takes its
  // last-seen stamp from the history (keywords 1-3 are in it).
  std::vector<KeywordId> members = {1, 2};
  // Each member's published signature (p is 2 at the default config).
  std::vector<std::uint64_t> signature = {1000};
  // The correlations' edges, in section order: the AKG's one edge list.
  std::vector<Pair> correlations = {{1, 2}};
  // The edges of the one cluster, none when empty.
  std::vector<Pair> cluster_edges = {};

  std::string Bytes() const {
    detect::DetectorConfig config;
    config.quantum_size = 100;
    config.akg.window_length = 8;
    BinaryWriter w;
    sio::WriteConfig(w, config);
    w.I64(next_index);
    w.U64(0);  // no pending messages
    w.U64(config.akg.window_length);
    w.U32(1);  // one quantum of history: keywords 1, 2, 3, user 9
    w.U64(3);
    for (KeywordId keyword : {1u, 2u, 3u}) w.U64(akg::PackPair(keyword, 9));
    w.U64(members.size());  // member rows: keyword, last-bursty stamp
    for (KeywordId keyword : members) {
      w.U32(keyword);
      w.I64(0);
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      w.U32(static_cast<std::uint32_t>(signature.size()));
      for (std::uint64_t value : signature) w.U64(value);
    }
    w.U64(correlations.size());
    for (const auto& [u, v] : correlations) {
      w.U32(u);
      w.U32(v);
      w.F64(0.5);
    }
    // The maintainer's clusters: id counter, then each cluster.
    const bool clustered = !cluster_edges.empty();
    w.U64(clustered ? 1 : 0);
    w.U64(clustered ? 1 : 0);
    if (clustered) {
      w.U64(0);  // id
      w.I64(0);  // born at
      w.U64(cluster_edges.size());
      for (const auto& [u, v] : cluster_edges) {
        w.U32(u);
        w.U32(v);
      }
    }
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
                                     .correlations = {{1, 2}, {1, 3}}}
                          .Bytes(),
                      nullptr),
            nullptr);
}

TEST(CheckpointFuzzTest, ForgedSignaturesAreRejected) {
  // A member's signature is the bottom-p of its non-empty window set:
  // 1 to p strictly ascending hash keys. p is 2 here.
  for (const std::vector<std::uint64_t>& signature :
       {std::vector<std::uint64_t>{}, std::vector<std::uint64_t>{1, 2, 3},
        std::vector<std::uint64_t>{2, 1}, std::vector<std::uint64_t>{1, 1}}) {
    EXPECT_EQ(LoadError(ForgedSnapshot{.signature = signature}.Bytes()),
              durability::ErrorCode::kCorrupt)
        << signature.size() << "-value signature accepted";
  }
  EXPECT_NE(LoadBytes(ForgedSnapshot{.signature = {1, 2}}.Bytes(), nullptr),
            nullptr);
}

TEST(CheckpointFuzzTest, MemberHeldByNoHistoryEntryIsRejected) {
  // A member's last-seen stamp is the newest history entry that holds it;
  // keyword 4 is in none, so no run wrote it as a member.
  EXPECT_EQ(
      LoadBytes(ForgedSnapshot{.members = {1, 2, 4}}.Bytes(), nullptr),
      nullptr)
      << "member outside the window accepted";
  // The member rows are strictly ascending, as Save writes them.
  for (const std::vector<KeywordId>& members :
       {std::vector<KeywordId>{2, 1}, std::vector<KeywordId>{1, 1, 2}}) {
    EXPECT_EQ(LoadError(ForgedSnapshot{.members = members,
                                       .correlations = {}}
                            .Bytes()),
              durability::ErrorCode::kCorrupt)
        << "member rows out of keyword order accepted";
  }
}

TEST(CheckpointFuzzTest, ForgedCorrelationsAreRejected) {
  // The correlations are the AKG's edges as Save writes them: between two
  // members, each pair ascending, the list strictly ascending.
  // ForgedSnapshotBaselineLoads shows the list is the only fault.
  for (const ForgedSnapshot& forged : {
           // An endpoint that is not a member (keyword 3 is in the window).
           ForgedSnapshot{.correlations = {{1, 2}, {1, 3}}},
           // A pair written high endpoint first.
           ForgedSnapshot{.members = {1, 2, 3}, .correlations = {{2, 1}}},
           // Out of order, and repeated.
           ForgedSnapshot{.members = {1, 2, 3},
                          .correlations = {{1, 3}, {1, 2}}},
           ForgedSnapshot{.members = {1, 2, 3},
                          .correlations = {{1, 2}, {1, 2}}},
       }) {
    EXPECT_EQ(LoadError(forged.Bytes()), durability::ErrorCode::kCorrupt)
        << forged.correlations.size() << " correlations, first "
        << forged.correlations[0].first << "-"
        << forged.correlations[0].second;
  }
}

TEST(CheckpointFuzzTest, ClusterEdgeOutsideTheAkgIsRejected) {
  // The maintainer's graph is rebuilt from the correlations, and every
  // cluster edge must be one of them.
  EXPECT_NE(LoadBytes(ForgedSnapshot{.cluster_edges = {{1, 2}}}.Bytes(),
                      nullptr),
            nullptr);
  EXPECT_EQ(LoadError(ForgedSnapshot{.cluster_edges = {{1, 2}, {2, 3}}}
                          .Bytes()),
            durability::ErrorCode::kCorrupt)
      << "cluster edge without a correlation accepted";
}

TEST(CheckpointFuzzTest, ForgedClockIsRejected) {
  // The quantizer's clock is the only stored one: the AKG layer counts its
  // history's entries and the members' last-seen stamps back from
  // next_index - 1. A clock below 0, one below the history's depth (0
  // with this one-entry history, whose entry would be quantum -1) or one
  // that leaves no index for the quantum after the next is not one any
  // run wrote; it is refused as damage. ForgedSnapshotBaselineLoads shows
  // the clock is the only fault.
  for (const QuantumIndex next_index :
       {QuantumIndex{-1}, std::numeric_limits<QuantumIndex>::min(),
        std::numeric_limits<QuantumIndex>::max(), QuantumIndex{0}}) {
    EXPECT_EQ(LoadError(ForgedSnapshot{.next_index = next_index}.Bytes()),
              durability::ErrorCode::kCorrupt)
        << "next_index " << next_index;
  }
  // A later clock loads: the history's entry is then quantum 4.
  EXPECT_NE(LoadBytes(ForgedSnapshot{.next_index = 5}.Bytes(), nullptr),
            nullptr);
}

TEST(CheckpointFuzzTest, LoadedSnapshotProcessesItsNextQuantum) {
  // Whatever a loader accepts must be a state the engine can run from:
  // every forged snapshot of this suite that loads processes its next two
  // quanta — one empty, one that makes keywords 1-4 bursty together —
  // without aborting.
  std::vector<ForgedSnapshot> variants = {
      ForgedSnapshot{},
      ForgedSnapshot{.members = {1, 2, 3},
                     .correlations = {{1, 2}, {1, 3}}},
      ForgedSnapshot{.members = {1, 2, 4}},
      ForgedSnapshot{.members = {1, 2, 3}, .correlations = {}},
      ForgedSnapshot{.correlations = {}},
      ForgedSnapshot{.members = {}, .correlations = {}},
      ForgedSnapshot{.signature = {1, 2}},
      ForgedSnapshot{.signature = {}},
      ForgedSnapshot{.correlations = {{1, 2}, {1, 3}}},
      ForgedSnapshot{.cluster_edges = {{1, 2}}},
      ForgedSnapshot{.cluster_edges = {{1, 2}, {2, 3}}},
  };
  for (const QuantumIndex next_index :
       {QuantumIndex{-1}, QuantumIndex{0}, QuantumIndex{2}, QuantumIndex{5},
        QuantumIndex{1} << 40, std::numeric_limits<QuantumIndex>::max() - 2,
        std::numeric_limits<QuantumIndex>::max(),
        std::numeric_limits<QuantumIndex>::min()}) {
    variants.push_back(ForgedSnapshot{.next_index = next_index});
  }
  std::size_t loaded = 0;
  for (const ForgedSnapshot& forged : variants) {
    const std::unique_ptr<ParallelDetector> engine =
        LoadBytes(forged.Bytes(), nullptr);
    if (engine == nullptr) continue;
    ++loaded;
    SCOPED_TRACE(testing::Message()
                 << "next_index " << forged.next_index << ", "
                 << forged.members.size() << " members, "
                 << forged.correlations.size() << " correlations, "
                 << forged.cluster_edges.size() << " cluster edges");
    stream::Quantum empty;
    empty.index = engine->next_quantum_index();
    engine->ProcessQuantum(empty);
    stream::Quantum busy;
    busy.index = engine->next_quantum_index();
    for (UserId user = 9; user < 15; ++user) {
      stream::Message m;
      m.user = user;
      m.keywords = {1, 2, 3, 4};
      busy.messages.push_back(std::move(m));
    }
    const detect::QuantumReport report = engine->ProcessQuantum(busy);
    EXPECT_EQ(report.quantum, busy.index);
    EXPECT_EQ(engine->next_quantum_index(), busy.index + 1);
  }
  // The baseline, the three AKGs without an edge or with two, the
  // two-value signature, the one-edge cluster and the clocks 2, 5, 2^40
  // and the top one that leaves room for two quanta.
  EXPECT_EQ(loaded, 11u);
}

TEST(CheckpointFuzzTest, LoadedClockRefusesTheQuantumWithoutASuccessor) {
  // A clock one short of the top index loads and processes its next
  // quantum; the one after would leave the clock no successor, so the
  // engine refuses it, whether pre-built or closed by Push.
  constexpr QuantumIndex kTop = std::numeric_limits<QuantumIndex>::max();
  const std::string bytes = ForgedSnapshot{.next_index = kTop - 1}.Bytes();
  auto message = [](UserId user) {
    stream::Message m;
    m.user = user;
    m.keywords = {1, 2};
    return m;
  };

  const std::unique_ptr<ParallelDetector> built = LoadBytes(bytes, nullptr);
  ASSERT_NE(built, nullptr);
  stream::Quantum quantum;
  quantum.index = kTop - 1;
  quantum.messages = {message(9)};
  EXPECT_EQ(built->ProcessQuantum(quantum).quantum, kTop - 1);
  quantum.index = kTop;
  EXPECT_DEATH(built->ProcessQuantum(quantum), "quantum\\.index <");
  EXPECT_EQ(built->next_quantum_index(), kTop);

  const std::unique_ptr<ParallelDetector> pushed = LoadBytes(bytes, nullptr);
  ASSERT_NE(pushed, nullptr);
  const std::size_t delta = pushed->core().config().quantum_size;
  for (std::size_t i = 0; i + 1 < delta; ++i) {
    EXPECT_FALSE(pushed->Push(message(static_cast<UserId>(i))).has_value());
  }
  const std::optional<detect::QuantumReport> report = pushed->Push(message(9));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->quantum, kTop - 1);
  for (std::size_t i = 0; i + 1 < delta; ++i) {
    EXPECT_FALSE(pushed->Push(message(static_cast<UserId>(i))).has_value());
  }
  EXPECT_DEATH(pushed->Push(message(9)), "next_index_ <");
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
