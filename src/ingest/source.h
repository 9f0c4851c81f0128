// Pluggable message sources for the ingest pipeline.
//
// A MessageSource pulls one RawRecord at a time. Every record is raw text
// (one message) that the frontend workers tokenize: the stream-backed
// JSONL and TSV sources share one line reader (LineSource) and differ only
// in their line parsers; the in-memory generator renders a synthetic trace
// back to text.

#ifndef SCPRT_INGEST_SOURCE_H_
#define SCPRT_INGEST_SOURCE_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <string_view>

#include "common/types.h"
#include "stream/message.h"
#include "stream/synthetic.h"

namespace scprt::ingest {

/// One unit of input before tokenization.
struct RawRecord {
  UserId user = 0;
  /// Ground-truth passthrough for evaluation; the detector never reads it.
  std::int32_t event_id = stream::kBackground;
  /// Raw message text.
  std::string text;
};

/// A resumable cursor into a source: how far it has been consumed. The
/// checkpoint format persists this verbatim (snapshot_io::IngestState), so
/// a restarted deployment can Seek() back to the fence point and replay
/// only the tail.
struct SourcePosition {
  /// Records returned by Next() so far.
  std::uint64_t record_index = 0;
  /// Byte offset just past the last returned record's line (stream-backed
  /// sources); mirrors record_index for in-memory sources.
  std::uint64_t byte_offset = 0;
};

/// Pull interface over an input stream of records.
class MessageSource {
 public:
  virtual ~MessageSource() = default;

  /// Pulls the next record; false at end of stream. Malformed input is
  /// skipped (and counted), never returned.
  virtual bool Next(RawRecord& out) = 0;

  /// Input lines skipped as malformed so far.
  virtual std::uint64_t malformed_count() const { return 0; }

  /// Cursor after the last record returned by Next(). Default: a source
  /// that does not track positions (always the zero position).
  virtual SourcePosition Position() const { return {}; }

  /// True when Seek() can restore a previously captured Position() —
  /// false for one-shot streams (stdin, sockets), whose deployments
  /// checkpoint but cannot replay the tail (docs/operations.md).
  virtual bool seekable() const { return false; }

  /// Repositions the source so the next Next() returns the record that
  /// followed `position`'s capture. Returns false when unsupported or the
  /// underlying seek failed (the source is then unusable for resume).
  virtual bool Seek(const SourcePosition& position) {
    (void)position;
    return false;
  }
};

/// A line-oriented stream of records: owns the stream, the SourcePosition
/// cursor (a byte offset just past each returned record's line), Seek and
/// the malformed count. Blank lines are skipped silently; each other line
/// goes to the subclass's ParseLine.
class LineSource : public MessageSource {
 public:
  /// False when the path constructor could not open its file.
  bool ok() const { return in_ != nullptr; }
  bool Next(RawRecord& out) final;
  std::uint64_t malformed_count() const final { return malformed_; }
  SourcePosition Position() const final { return position_; }
  bool seekable() const final;
  bool Seek(const SourcePosition& position) final;

 protected:
  /// Reads from a stream owned by the caller (must outlive the source).
  explicit LineSource(std::istream& in) : in_(&in) {}
  /// Opens `path`; ok() reports whether the open succeeded.
  explicit LineSource(const std::string& path);

  /// What one non-blank line holds.
  enum class LineKind { kRecord, kSkipped, kMalformed };

  /// Parses one non-blank line (trailing '\r' removed) into `out`, which
  /// arrives default-constructed; only kRecord lines are returned.
  virtual LineKind ParseLine(std::string_view line, RawRecord& out) = 0;

 private:
  std::unique_ptr<std::istream> owned_;
  std::istream* in_ = nullptr;
  std::string line_;
  std::uint64_t malformed_ = 0;
  SourcePosition position_;
};

/// JSON-lines raw text: one {"user":N,"text":"...","event":N?} per line
/// (see ingest/jsonl.h for the schema). Malformed lines are skipped and
/// counted.
class JsonlSource final : public LineSource {
 public:
  explicit JsonlSource(std::istream& in) : LineSource(in) {}
  explicit JsonlSource(const std::string& path) : LineSource(path) {}

 private:
  LineKind ParseLine(std::string_view line, RawRecord& out) override;
};

/// Tab-separated raw text: `user<TAB>text` or `user<TAB>event<TAB>text`.
/// Lines starting with '#' are skipped silently; malformed lines (bad user
/// id, missing text column) are skipped and counted.
class TsvSource final : public LineSource {
 public:
  explicit TsvSource(std::istream& in) : LineSource(in) {}
  explicit TsvSource(const std::string& path) : LineSource(path) {}

 private:
  LineKind ParseLine(std::string_view line, RawRecord& out) override;
};

/// Pass-through adapter that ends the stream once the inner source's
/// absolute record index reaches `limit` — bounded replays, and the
/// crash simulations of the kill/resume tests and demo (everything after
/// the limit behaves as if the process died there). Position/Seek
/// delegate to the inner source, and a Seek re-bases the consumed count
/// from the cursor, so resuming through the limiter replays the tail up
/// to the same absolute limit.
class LimitedSource : public MessageSource {
 public:
  /// `inner` is borrowed and must outlive this source; its position must
  /// be at the start (record index 0) or be re-based via Seek.
  LimitedSource(MessageSource& inner, std::uint64_t limit)
      : inner_(&inner), limit_(limit) {}

  bool Next(RawRecord& out) override {
    if (consumed_ >= limit_ || !inner_->Next(out)) return false;
    ++consumed_;
    return true;
  }
  std::uint64_t malformed_count() const override {
    return inner_->malformed_count();
  }
  SourcePosition Position() const override { return inner_->Position(); }
  bool seekable() const override { return inner_->seekable(); }
  bool Seek(const SourcePosition& position) override {
    if (!inner_->Seek(position)) return false;
    consumed_ = position.record_index;
    return true;
  }

 private:
  MessageSource* inner_;
  std::uint64_t limit_;
  std::uint64_t consumed_ = 0;  // inner absolute record index
};

/// In-memory raw-text firehose: generates a synthetic trace and renders
/// each message back to text through the trace's own dictionary, so the
/// pipeline faces genuine tokenize/intern work without any file I/O.
class GeneratorSource : public MessageSource {
 public:
  explicit GeneratorSource(const stream::SyntheticConfig& config);

  bool Next(RawRecord& out) override;
  SourcePosition Position() const override { return {next_, next_}; }
  bool seekable() const override { return true; }
  bool Seek(const SourcePosition& position) override;

  /// The generated ground truth (for evaluation and dictionary seeding).
  const stream::SyntheticTrace& trace() const { return trace_; }

 private:
  stream::SyntheticTrace trace_;
  std::uint64_t next_ = 0;
};

}  // namespace scprt::ingest

#endif  // SCPRT_INGEST_SOURCE_H_
