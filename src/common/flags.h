// Command-line flags declared as tables. A command lists the flags it
// accepts once, as Flag entries (name, typed target, value placeholder,
// one-line help); FlagTable::Parse reads argv against that table and
// FlagTable::Usage prints the usage text generated from it, so the flags a
// command accepts and the flags its usage lists cannot drift apart.
//
//   bool json = false;
//   int nodes = 10;
//   const FlagTable table{"pdspbench analyze <target>", /*max_positionals=*/1,
//                         {{"json", &json, "print one JSON document"},
//                          {"nodes", &nodes, "N", "cluster size"}}};
//   std::vector<std::string> positionals;
//   if (!table.Parse(argc, argv, &positionals)) return 2;

#ifndef PDSP_COMMON_FLAGS_H_
#define PDSP_COMMON_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <variant>
#include <vector>

namespace pdsp {

/// Reads all of `text` as one number of type T: no trailing characters, no
/// sign for an unsigned T, within T's range and, for floating point,
/// finite. Returns false and leaves *out untouched otherwise. The one
/// parser for numbers read from command lines, environment variables and
/// recorded provenance.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(parsed);
  if (ok) *out = parsed;
  return ok;
}

/// \brief One entry of a flag table: a switch (--name), a valued flag
/// (--name=VALUE) or, with `given`, a flag whose value is optional
/// (--name[=VALUE]).
struct Flag {
  /// Where the flag's value goes. A bool target is a switch; a vector<int>
  /// target reads a comma list (N[,N...]). size_t is uint64_t on this
  /// platform, so size_t targets bind to the uint64_t alternative (a
  /// variant cannot list the same type twice).
  using Target = std::variant<bool*, int*, uint64_t*, double*, std::string*,
                              std::vector<int>*>;

  /// A switch: --name sets *on; --name=VALUE is a usage error.
  Flag(const char* name, bool* on, const char* help)
      : name(name), target(on), help(help) {}
  /// A valued flag; `value` is its placeholder in the usage text. With
  /// `given`, a bare --name is accepted as well: it keeps the target's
  /// value and, like --name=VALUE, sets *given.
  Flag(const char* name, Target target, const char* value, const char* help,
       bool* given = nullptr)
      : name(name), target(target), value(value), help(help), given(given) {}

  const char* name;
  Target target;
  const char* value = nullptr;
  const char* help;
  bool* given = nullptr;
};

/// \brief A command's flags and the number of positional (non-flag)
/// arguments it takes.
struct FlagTable {
  /// Opens the usage text, e.g. "pdspbench analyze <target>".
  std::string synopsis;
  size_t max_positionals = 0;
  std::vector<Flag> flags;

  /// Parses argv[1..argc). An argument starting with '-' must be a flag of
  /// the table; the others are appended to *positionals (null when the
  /// table takes none). A repeated flag: the last value wins. On a
  /// malformed value prints an error naming the flag; on an unknown flag,
  /// a switch given a value, a valued flag without one or a positional
  /// beyond the maximum prints the error and the usage text. Returns false
  /// on either; callers exit with the usage status 2.
  bool Parse(int argc, const char* const* argv,
             std::vector<std::string>* positionals = nullptr) const;

  /// Prints the usage text to stderr: the synopsis, then one line per flag
  /// with its help. Returns the usage exit status 2.
  int Usage() const;
};

}  // namespace pdsp

#endif  // PDSP_COMMON_FLAGS_H_
