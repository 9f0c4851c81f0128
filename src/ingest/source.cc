#include "ingest/source.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <string_view>
#include <utility>

#include "ingest/jsonl.h"
#include "ingest/text_export.h"

namespace scprt::ingest {

namespace {

// Reads the next non-blank line; false at end of stream.
bool NextLine(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t i = 0;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i < line.size()) return true;
  }
  return false;
}

// Strict decimal parse of a whole field into Int.
template <typename Int>
bool ParseField(std::string_view field, Int& out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

// tellg() that tolerates a set eofbit (the last line of a file without a
// trailing newline leaves getline at EOF while the record is still valid).
// Returns -1 for genuinely non-seekable streams (stdin, pipes).
std::streamoff TellAfterRecord(std::istream& in) {
  const bool was_eof = in.eof();
  if (was_eof) in.clear(in.rdstate() & ~std::ios::eofbit);
  const std::streamoff pos = in.tellg();
  if (was_eof) in.setstate(std::ios::eofbit);
  return pos;
}

}  // namespace

LineSource::LineSource(const std::string& path) {
  auto file = std::make_unique<std::ifstream>(path);
  if (!*file) return;
  in_ = file.get();
  owned_ = std::move(file);
}

bool LineSource::Next(RawRecord& out) {
  if (!in_) return false;
  while (NextLine(*in_, line_)) {
    out = RawRecord{};
    switch (ParseLine(line_, out)) {
      case LineKind::kRecord: {
        ++position_.record_index;
        const std::streamoff offset = TellAfterRecord(*in_);
        position_.byte_offset =
            offset >= 0 ? static_cast<std::uint64_t>(offset) : 0;
        return true;
      }
      case LineKind::kMalformed:
        ++malformed_;
        break;
      case LineKind::kSkipped:
        break;
    }
  }
  return false;
}

bool LineSource::seekable() const {
  return in_ != nullptr && TellAfterRecord(*in_) >= 0;
}

bool LineSource::Seek(const SourcePosition& position) {
  if (in_ == nullptr) return false;
  in_->clear();
  in_->seekg(static_cast<std::streamoff>(position.byte_offset));
  if (!*in_) return false;
  position_ = position;
  return true;
}

LineSource::LineKind JsonlSource::ParseLine(std::string_view line,
                                            RawRecord& out) {
  JsonlRecord record;
  if (!ParseJsonlRecord(line, record)) return LineKind::kMalformed;
  out.user = record.user;
  out.event_id = record.event_id;
  out.text = std::move(record.text);
  return LineKind::kRecord;
}

LineSource::LineKind TsvSource::ParseLine(std::string_view line,
                                          RawRecord& out) {
  if (line[0] == '#') return LineKind::kSkipped;
  const std::size_t tab = line.find('\t');
  if (tab == std::string_view::npos) return LineKind::kMalformed;
  UserId user = 0;
  if (!ParseField(line.substr(0, tab), user)) return LineKind::kMalformed;
  std::string_view rest = line.substr(tab + 1);
  std::int32_t event_id = stream::kBackground;
  // Optional middle column: `user \t event \t text`. Text may not contain
  // tabs, so a second tab whose prefix parses as an integer is the label.
  const std::size_t tab2 = rest.find('\t');
  if (tab2 != std::string_view::npos) {
    std::int32_t label = 0;
    if (ParseField(rest.substr(0, tab2), label)) {
      event_id = label;
      rest = rest.substr(tab2 + 1);
    }
  }
  if (rest.empty()) return LineKind::kMalformed;
  out.user = user;
  out.event_id = event_id;
  out.text.assign(rest);
  return LineKind::kRecord;
}

GeneratorSource::GeneratorSource(const stream::SyntheticConfig& config)
    : trace_(stream::GenerateSyntheticTrace(config)) {}

bool GeneratorSource::Seek(const SourcePosition& position) {
  if (position.record_index > trace_.messages.size()) return false;
  next_ = position.record_index;
  return true;
}

bool GeneratorSource::Next(RawRecord& out) {
  if (next_ >= trace_.messages.size()) return false;
  const stream::Message& message = trace_.messages[next_++];
  out = RawRecord{};
  out.user = message.user;
  out.event_id = message.event_id;
  out.text = RenderMessageText(message, trace_.dictionary);
  return true;
}

}  // namespace scprt::ingest
