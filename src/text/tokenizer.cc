#include "text/tokenizer.h"

#include <cctype>

namespace scprt::text {

namespace {

// Tokens strictly shorter than this are dropped ("a", "I", ...).
constexpr std::size_t kMinTokenLength = 2;
// Bare numbers with more digits than this are dropped (timestamps, ids).
constexpr std::size_t kMaxNumberLength = 4;

bool IsTokenChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '\'' ||
         c == '.' || c == '#' || c == '@' || c == '_' || c == '-';
}

// True if `t` consists only of digits, dots and dashes (a "bare number").
bool IsBareNumber(std::string_view t) {
  bool has_digit = false;
  for (char c : t) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      has_digit = true;
    } else if (c != '.' && c != '-') {
      return false;
    }
  }
  return has_digit;
}

// Strips leading/trailing punctuation that IsTokenChar admitted but that is
// not meaningful at the borders ("don't." -> "don't", ".9" stays).
std::string_view TrimToken(std::string_view t) {
  while (!t.empty() && (t.front() == '\'' || t.front() == '.' ||
                        t.front() == '-' || t.front() == '_')) {
    // Keep a leading dot only when followed by a digit (".9" style decimals
    // are rare; normalize them away too for simplicity).
    t.remove_prefix(1);
  }
  while (!t.empty() && (t.back() == '\'' || t.back() == '.' ||
                        t.back() == '-' || t.back() == '_' ||
                        t.back() == '#' || t.back() == '@')) {
    t.remove_suffix(1);
  }
  return t;
}

}  // namespace

void AsciiLowerInPlace(std::string& s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
}

std::vector<std::string> Tokenize(std::string_view message) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  const std::size_t n = message.size();
  while (i < n) {
    while (i < n && !IsTokenChar(message[i])) ++i;
    std::size_t start = i;
    while (i < n && IsTokenChar(message[i])) ++i;
    if (start == i) continue;
    std::string_view raw = TrimToken(message.substr(start, i - start));
    if (raw.size() < kMinTokenLength) continue;
    // URLs sneak through as "http" fragments after punctuation splitting;
    // drop the protocol tokens outright.
    if (raw == "http" || raw == "https" || raw == "www") continue;
    if (IsBareNumber(raw)) {
      std::size_t digits = 0;
      for (char c : raw) {
        if (std::isdigit(static_cast<unsigned char>(c))) ++digits;
      }
      if (digits > kMaxNumberLength) continue;
    }
    std::string token(raw);
    AsciiLowerInPlace(token);
    tokens.push_back(std::move(token));
  }
  return tokens;
}

}  // namespace scprt::text
