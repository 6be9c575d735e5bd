#include "src/common/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace pdsp {

namespace {

// std::isspace in the "C" locale, which the program never leaves, inline:
// a tokenizer tests every character.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

void SplitWhitespace(std::string_view s,
                     std::vector<std::string_view>* tokens) {
  tokens->clear();
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsSpace(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !IsSpace(s[i])) ++i;
    if (i > start) tokens->push_back(s.substr(start, i - start));
  }
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(
      std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanCount(double n) {
  if (n >= 1e6) return StrFormat("%.3gm", n / 1e6);
  if (n >= 1e3) return StrFormat("%.3gk", n / 1e3);
  return StrFormat("%g", n);
}

}  // namespace pdsp
