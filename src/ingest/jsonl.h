// Minimal JSON-lines record parsing for the raw-text ingest frontend.
//
// The ingest JSONL schema is one object per line:
//
//   {"user": 1234, "text": "earthquake hits eastern turkey", "event": 3}
//
//   * "user"  (required) — non-negative integer author id.
//   * "text"  (required) — the raw message text (JSON string escapes,
//               including \uXXXX, are decoded to UTF-8).
//   * "event" (optional) — planted ground-truth label for evaluation
//               harnesses; defaults to background (-1). The detector never
//               reads it.
//
// Unknown keys are skipped (values of any JSON type, including nested
// containers), so real-world dumps with extra fields ingest unchanged. The
// parser is hand-rolled: the container ships no JSON library, the schema is
// two fields deep, and a restricted parser is fuzz-friendlier than a
// general one.

#ifndef SCPRT_INGEST_JSONL_H_
#define SCPRT_INGEST_JSONL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace scprt::ingest {

/// One decoded JSONL record.
struct JsonlRecord {
  std::uint32_t user = 0;
  std::int32_t event_id = -1;
  std::string text;
};

/// Parses one line. Returns false on malformed input (bad JSON, missing
/// "user"/"text", negative or overflowing user id); `out` is then
/// unspecified. Blank lines are malformed — callers skip them beforehand.
bool ParseJsonlRecord(std::string_view line, JsonlRecord& out);

}  // namespace scprt::ingest

#endif  // SCPRT_INGEST_JSONL_H_
