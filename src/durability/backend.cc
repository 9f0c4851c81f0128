#include "durability/backend.h"

#include <utility>

#include "common/binary_io.h"
#include "common/check.h"
#include "durability/snapshot_backend.h"
#include "durability/wal_backend.h"

namespace scprt::durability {

namespace sio = detect::snapshot_io;

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSnapshot:
      return "snapshot";
    case BackendKind::kWal:
      return "wal";
  }
  return "unknown";
}

bool ParseBackendKind(std::string_view text, BackendKind& kind) {
  if (text == "snapshot") {
    kind = BackendKind::kSnapshot;
    return true;
  }
  if (text == "wal") {
    kind = BackendKind::kWal;
    return true;
  }
  return false;
}

const char* FsyncLevelName(FsyncLevel level) {
  switch (level) {
    case FsyncLevel::kNone:
      return "none";
    case FsyncLevel::kInterval:
      return "interval";
    case FsyncLevel::kEveryCommit:
      return "commit";
  }
  return "unknown";
}

bool ParseFsyncLevel(std::string_view text, FsyncLevel& level) {
  if (text == "none") {
    level = FsyncLevel::kNone;
    return true;
  }
  if (text == "interval") {
    level = FsyncLevel::kInterval;
    return true;
  }
  if (text == "commit") {
    level = FsyncLevel::kEveryCommit;
    return true;
  }
  return false;
}

std::unique_ptr<Backend> MakeBackend(const BackendOptions& options) {
  SCPRT_CHECK(!options.directory.empty());
  SCPRT_CHECK(options.full_interval >= 1);
  switch (options.kind) {
    case BackendKind::kSnapshot:
      return std::make_unique<SnapshotBackend>(options);
    case BackendKind::kWal:
      return std::make_unique<WalBackend>(options);
  }
  return nullptr;
}

Error SaveSnapshot(engine::ParallelDetector& engine, std::ostream& out,
                   std::uint64_t* checkpoint_id,
                   const CheckpointExtras& extras) {
  BinaryWriter payload;
  sio::WriteConfig(payload, engine.core().config());
  engine.SaveState(payload, extras.quantizer_override != nullptr
                                ? *extras.quantizer_override
                                : engine.quantizer());
  if (extras.ingest != nullptr) {
    sio::WriteIngestSection(payload, *extras.ingest);
  }
  if (!sio::WriteFrame(out, sio::FrameKind::kFull, payload.data(),
                       checkpoint_id)) {
    return MakeError(ErrorCode::kIo, "snapshot stream write failed");
  }
  return {};
}

std::unique_ptr<engine::ParallelDetector> LoadEngineSnapshot(
    std::istream& in, const text::KeywordDictionary* dictionary,
    std::size_t threads, std::uint64_t* checkpoint_id, Error* error,
    sio::IngestState* ingest, bool* ingest_present) {
  std::unique_ptr<engine::ParallelDetector> engine;
  sio::LoadError load_error = sio::LoadError::kNone;
  const bool loaded = sio::ReadFullSnapshot(
      in,
      [&](BinaryReader& reader, const detect::DetectorConfig& config) {
        engine = std::make_unique<engine::ParallelDetector>(
            engine::ParallelDetectorConfig{config, threads}, dictionary);
        return engine->RestoreState(reader);
      },
      checkpoint_id, &load_error, ingest, ingest_present);
  if (error != nullptr) *error = Error::FromLoad(load_error);
  if (!loaded) return nullptr;
  return engine;
}

Error SaveDeltaSnapshot(engine::ParallelDetector& engine,
                        std::uint64_t base_id,
                        const std::vector<stream::Quantum>& quanta,
                        std::ostream& out, const CheckpointExtras& extras) {
  const stream::Quantizer& quantizer = extras.quantizer_override != nullptr
                                           ? *extras.quantizer_override
                                           : engine.quantizer();
  BinaryWriter payload;
  sio::WriteDelta(payload, base_id, quantizer.next_index(), quanta,
                  quantizer.pending());
  if (extras.ingest != nullptr) {
    sio::WriteIngestSection(payload, *extras.ingest);
  }
  if (!sio::WriteFrame(out, sio::FrameKind::kDelta, payload.data())) {
    return MakeError(ErrorCode::kIo, "delta stream write failed");
  }
  return {};
}

Error ApplyDeltaSnapshot(engine::ParallelDetector& engine, std::istream& in,
                         std::uint64_t expected_base_id,
                         sio::IngestState* ingest, bool* ingest_present) {
  sio::DeltaPayload delta;
  sio::LoadError load_error = sio::LoadError::kNone;
  if (!sio::ReadAndValidateDelta(in, expected_base_id,
                                 engine.next_quantum_index(),
                                 engine.core().config().quantum_size, delta,
                                 &load_error, ingest, ingest_present)) {
    return Error::FromLoad(load_error);
  }
  ReplayDelta(engine, delta);
  return {};
}

void ReplayDelta(engine::ParallelDetector& engine,
                 const sio::DeltaPayload& delta) {
  // The base's pending partial quantum is superseded: its messages are the
  // head of the delta's first quantum (or of the delta's own pending when
  // no quantum closed since the base).
  engine.TakePendingMessages();
  for (const stream::Quantum& quantum : delta.quanta) {
    engine.ProcessQuantum(quantum);
  }
  for (const stream::Message& m : delta.pending) {
    engine.Push(m);
  }
}

}  // namespace scprt::durability
