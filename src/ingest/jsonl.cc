#include "ingest/jsonl.h"

#include <cctype>
#include <cstdint>
#include <limits>

namespace scprt::ingest {

namespace {

// Cursor over one line. Parse helpers return false on malformed input and
// leave the cursor unspecified; the top-level parse then rejects the line.
struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  bool AtEnd() const { return i >= s.size(); }
  char Peek() const { return s[i]; }
  bool Eat(char c) {
    if (AtEnd() || s[i] != c) return false;
    ++i;
    return true;
  }
  void SkipSpace() {
    while (!AtEnd() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' ||
                        s[i] == '\n')) {
      ++i;
    }
  }
};

// Appends one \uXXXX escape (with surrogate-pair handling) as UTF-8.
bool ParseUnicodeEscape(Cursor& c, std::string& out) {
  auto hex4 = [&](std::uint32_t& value) {
    value = 0;
    for (int k = 0; k < 4; ++k) {
      if (c.AtEnd()) return false;
      const char ch = c.s[c.i++];
      value <<= 4;
      if (ch >= '0' && ch <= '9') {
        value |= static_cast<std::uint32_t>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        value |= static_cast<std::uint32_t>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        value |= static_cast<std::uint32_t>(ch - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  };

  std::uint32_t cp = 0;
  if (!hex4(cp)) return false;
  if (cp >= 0xD800 && cp <= 0xDBFF) {
    // High surrogate: must be followed by \uDC00..\uDFFF.
    if (!c.Eat('\\') || !c.Eat('u')) return false;
    std::uint32_t low = 0;
    if (!hex4(low) || low < 0xDC00 || low > 0xDFFF) return false;
    cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
    return false;  // unpaired low surrogate
  }

  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
  return true;
}

// Parses a JSON string (cursor on the opening quote), decoding escapes.
bool ParseString(Cursor& c, std::string& out) {
  if (!c.Eat('"')) return false;
  out.clear();
  while (true) {
    if (c.AtEnd()) return false;
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) return false;  // bare control
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    if (c.AtEnd()) return false;
    const char esc = c.s[c.i++];
    switch (esc) {
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case '/':
        out.push_back('/');
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'u':
        if (!ParseUnicodeEscape(c, out)) return false;
        break;
      default:
        return false;
    }
  }
}

// Parses a JSON number into a signed 64-bit integer. Fractions and
// exponents are accepted syntactically but make the value non-integral,
// which the caller rejects for the fields it needs.
bool ParseNumber(Cursor& c, std::int64_t& value, bool& integral) {
  integral = true;
  bool negative = false;
  if (c.Eat('-')) negative = true;
  if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
    return false;
  }
  std::uint64_t magnitude = 0;
  while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c.Peek() - '0');
    if (magnitude > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;  // overflow
    }
    magnitude = magnitude * 10 + digit;
    ++c.i;
  }
  if (c.Eat('.')) {
    integral = false;
    if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      return false;
    }
    while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      ++c.i;
    }
  }
  if (!c.AtEnd() && (c.Peek() == 'e' || c.Peek() == 'E')) {
    integral = false;
    ++c.i;
    if (!c.AtEnd() && (c.Peek() == '+' || c.Peek() == '-')) ++c.i;
    if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      return false;
    }
    while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      ++c.i;
    }
  }
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (negative ? 1 : 0);
  if (magnitude > limit) return false;
  if (!negative || magnitude == 0) {
    value = static_cast<std::int64_t>(magnitude);
  } else {
    value = -static_cast<std::int64_t>(magnitude - 1) - 1;  // INT64_MIN-safe
  }
  return true;
}

// Skips a syntactically valid JSON number without range checks — unknown
// fields may carry 64-bit-overflowing ids that must not poison the record.
bool SkipNumber(Cursor& c) {
  c.Eat('-');
  if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
    return false;
  }
  while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
    ++c.i;
  }
  if (c.Eat('.')) {
    if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      return false;
    }
    while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      ++c.i;
    }
  }
  if (!c.AtEnd() && (c.Peek() == 'e' || c.Peek() == 'E')) {
    ++c.i;
    if (!c.AtEnd() && (c.Peek() == '+' || c.Peek() == '-')) ++c.i;
    if (c.AtEnd() || !std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      return false;
    }
    while (!c.AtEnd() && std::isdigit(static_cast<unsigned char>(c.Peek()))) {
      ++c.i;
    }
  }
  return true;
}

bool EatLiteral(Cursor& c, std::string_view word) {
  if (c.s.size() - c.i < word.size()) return false;
  if (c.s.substr(c.i, word.size()) != word) return false;
  c.i += word.size();
  return true;
}

// Skips one JSON value of any type (for unknown keys).
bool SkipValue(Cursor& c, int depth) {
  if (depth > 16) return false;  // runaway nesting
  c.SkipSpace();
  if (c.AtEnd()) return false;
  const char ch = c.Peek();
  if (ch == '"') {
    std::string scratch;
    return ParseString(c, scratch);
  }
  if (ch == '{' || ch == '[') {
    const char close = ch == '{' ? '}' : ']';
    ++c.i;
    c.SkipSpace();
    if (c.Eat(close)) return true;
    while (true) {
      if (ch == '{') {
        c.SkipSpace();
        std::string key;
        if (!ParseString(c, key)) return false;
        c.SkipSpace();
        if (!c.Eat(':')) return false;
      }
      if (!SkipValue(c, depth + 1)) return false;
      c.SkipSpace();
      if (c.Eat(close)) return true;
      if (!c.Eat(',')) return false;
    }
  }
  if (ch == 't') return EatLiteral(c, "true");
  if (ch == 'f') return EatLiteral(c, "false");
  if (ch == 'n') return EatLiteral(c, "null");
  return SkipNumber(c);
}

}  // namespace

bool ParseJsonlRecord(std::string_view line, JsonlRecord& out) {
  Cursor c{line};
  c.SkipSpace();
  if (!c.Eat('{')) return false;

  bool have_user = false;
  bool have_text = false;
  out.event_id = -1;

  c.SkipSpace();
  if (!c.Eat('}')) {
    std::string key;
    while (true) {
      c.SkipSpace();
      if (!ParseString(c, key)) return false;
      c.SkipSpace();
      if (!c.Eat(':')) return false;
      c.SkipSpace();
      if (key == "user" || key == "event") {
        std::int64_t value = 0;
        bool integral = false;
        if (!ParseNumber(c, value, integral) || !integral) return false;
        if (key == "user") {
          if (value < 0 ||
              value > std::numeric_limits<std::uint32_t>::max()) {
            return false;
          }
          out.user = static_cast<std::uint32_t>(value);
          have_user = true;
        } else {
          if (value < std::numeric_limits<std::int32_t>::min() ||
              value > std::numeric_limits<std::int32_t>::max()) {
            return false;
          }
          out.event_id = static_cast<std::int32_t>(value);
        }
      } else if (key == "text") {
        if (!ParseString(c, out.text)) return false;
        have_text = true;
      } else {
        if (!SkipValue(c, 0)) return false;
      }
      c.SkipSpace();
      if (c.Eat('}')) break;
      if (!c.Eat(',')) return false;
    }
  }
  c.SkipSpace();
  if (!c.AtEnd()) return false;  // trailing garbage after the object
  return have_user && have_text;
}

}  // namespace scprt::ingest
