#include "src/common/flags.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/common/string_util.h"

namespace pdsp {

namespace {

/// Stores `value` into a valued flag's target; false when it is malformed.
bool Assign(const Flag::Target& target, std::string_view value) {
  return std::visit(
      [value](auto* out) {
        using T = std::remove_pointer_t<decltype(out)>;
        if constexpr (std::is_same_v<T, bool>) {
          return false;  // switches take no value; Parse rejects it first
        } else if constexpr (std::is_same_v<T, std::string>) {
          *out = value;
          return true;
        } else if constexpr (std::is_same_v<T, std::vector<int>>) {
          std::vector<int> list;
          for (const std::string& part : Split(value, ',')) {
            if (!ParseNumber(part, &list.emplace_back())) return false;
          }
          *out = std::move(list);
          return true;
        } else {
          return ParseNumber(value, out);
        }
      },
      target);
}

/// "--name", "--name=VALUE" or "--name[=VALUE]".
std::string FlagForm(const Flag& flag) {
  std::string form = std::string("--") + flag.name;
  if (flag.value == nullptr) return form;
  if (flag.given != nullptr) return form + "[=" + flag.value + "]";
  return form + "=" + flag.value;
}

bool UsageError(const FlagTable& table, const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  table.Usage();
  return false;
}

}  // namespace

bool FlagTable::Parse(int argc, const char* const* argv,
                      std::vector<std::string>* positionals) const {
  size_t taken = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (taken++ == max_positionals) {
        return UsageError(*this,
                          StrFormat("unexpected argument '%s'", argv[i]));
      }
      positionals->emplace_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (key.substr(0, 2) == "--" && key.substr(2) == f.name) flag = &f;
    }
    if (flag == nullptr) {
      return UsageError(*this, StrFormat("unknown flag %s", argv[i]));
    }
    const bool has_value = eq != std::string_view::npos;
    if (std::holds_alternative<bool*>(flag->target)) {
      if (has_value) {
        return UsageError(*this, StrFormat("--%s is a switch and takes no "
                                           "value",
                                           flag->name));
      }
      *std::get<bool*>(flag->target) = true;
      continue;
    }
    if (!has_value && flag->given == nullptr) {
      return UsageError(*this, StrFormat("--%s needs a value", flag->name));
    }
    if (flag->given != nullptr) *flag->given = true;
    if (!has_value) continue;  // bare optional flag: keep the value
    const std::string_view value = arg.substr(eq + 1);
    if (!Assign(flag->target, value)) {
      std::fprintf(stderr, "invalid value '%.*s' for --%s\n",
                   static_cast<int>(value.size()), value.data(), flag->name);
      return false;
    }
  }
  return true;
}

int FlagTable::Usage() const {
  size_t width = 0;
  for (const Flag& flag : flags) {
    width = std::max(width, FlagForm(flag).size());
  }
  std::fprintf(stderr, "usage: %s\n", synopsis.c_str());
  for (const Flag& flag : flags) {
    std::fprintf(stderr, "  %-*s  %s\n", static_cast<int>(width),
                 FlagForm(flag).c_str(), flag.help);
  }
  return 2;
}

}  // namespace pdsp
