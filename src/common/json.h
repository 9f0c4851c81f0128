// JSON string literal encoding, shared by every JSON writer in the tree:
// the JSONL export (ingest/text_export.h), the watchdog's /health body and
// the flight recorder's crash bundle (obs/).

#ifndef SCPRT_COMMON_JSON_H_
#define SCPRT_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace scprt {

/// Appends `text` to `out` as a JSON string literal (quotes included),
/// escaping per RFC 8259. Bytes >= 0x80 pass through (UTF-8 stays UTF-8).
void AppendJsonString(std::string_view text, std::string& out);

}  // namespace scprt

#endif  // SCPRT_COMMON_JSON_H_
