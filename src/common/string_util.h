// Small string helpers shared across modules (tokenization for the text
// applications, formatting for reporters).

#ifndef PDSP_COMMON_STRING_UTIL_H_
#define PDSP_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace pdsp {

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of whitespace into views of `s`, replacing the contents
/// of *tokens (whose capacity is reused); empty tokens are dropped.
void SplitWhitespace(std::string_view s, std::vector<std::string_view>* tokens);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Human-readable count, e.g. 1500 -> "1.5k", 2000000 -> "2m".
std::string HumanCount(double n);

}  // namespace pdsp

#endif  // PDSP_COMMON_STRING_UTIL_H_
