#include "ingest/text_export.h"

#include <fstream>
#include <ostream>

#include "common/json.h"

namespace scprt::ingest {

std::string RenderMessageText(const stream::Message& message,
                              const text::KeywordDictionary& dictionary) {
  std::string text;
  for (std::size_t i = 0; i < message.keywords.size(); ++i) {
    if (i > 0) text.push_back(' ');
    text += dictionary.Spelling(message.keywords[i]);
  }
  return text;
}

std::string RenderJsonlLine(const stream::Message& message,
                            const text::KeywordDictionary& dictionary) {
  std::string line = "{\"user\": " + std::to_string(message.user);
  if (message.event_id != stream::kBackground) {
    line += ", \"event\": " + std::to_string(message.event_id);
  }
  line += ", \"text\": ";
  AppendJsonString(RenderMessageText(message, dictionary), line);
  line.push_back('}');
  return line;
}

std::string RenderTsvLine(const stream::Message& message,
                          const text::KeywordDictionary& dictionary) {
  std::string line = std::to_string(message.user);
  if (message.event_id != stream::kBackground) {
    line.push_back('\t');
    line += std::to_string(message.event_id);
  }
  line.push_back('\t');
  line += RenderMessageText(message, dictionary);
  return line;
}

namespace {

template <typename RenderFn>
bool WriteLines(const stream::SyntheticTrace& trace, std::ostream& out,
                RenderFn render) {
  for (const stream::Message& message : trace.messages) {
    out << render(message, trace.dictionary) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace

bool WriteJsonl(const stream::SyntheticTrace& trace, std::ostream& out) {
  return WriteLines(trace, out, RenderJsonlLine);
}

bool WriteTsv(const stream::SyntheticTrace& trace, std::ostream& out) {
  return WriteLines(trace, out, RenderTsvLine);
}

bool WriteJsonlFile(const stream::SyntheticTrace& trace,
                    const std::string& path) {
  std::ofstream out(path);
  return out && WriteJsonl(trace, out);
}

bool WriteTsvFile(const stream::SyntheticTrace& trace,
                  const std::string& path) {
  std::ofstream out(path);
  return out && WriteTsv(trace, out);
}

}  // namespace scprt::ingest
