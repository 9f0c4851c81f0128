#include "durability/backend.h"

#include "common/binary_io.h"

namespace scprt::durability {

namespace sio = detect::snapshot_io;

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
  if (!sio::WriteFrame(out, payload.data(), checkpoint_id)) {
    return MakeError(ErrorCode::kIo, "snapshot stream write failed");
  }
  return {};
}

std::unique_ptr<engine::ParallelDetector> LoadEngineSnapshot(
    std::istream& in, const text::KeywordDictionary* dictionary,
    std::size_t threads, std::uint64_t* checkpoint_id, Error* error,
    sio::IngestState* ingest, bool* ingest_present) {
  std::unique_ptr<engine::ParallelDetector> engine;
  ErrorCode code = ErrorCode::kNone;
  const bool loaded = sio::ReadFullSnapshot(
      in,
      [&](BinaryReader& reader, const detect::DetectorConfig& config) {
        engine = std::make_unique<engine::ParallelDetector>(
            engine::ParallelDetectorConfig{config, threads}, dictionary);
        return engine->RestoreState(reader);
      },
      checkpoint_id, &code, ingest, ingest_present);
  if (error != nullptr) *error = MakeError(code, {});
  if (!loaded) return nullptr;
  return engine;
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
