// Config structs declared as one table of fields.
//
// A config struct lists its fields once, as rows of an X-macro, the way
// SDD_FAULT_DIRECTIVES in util/fault.hpp lists fault directives:
//
//   #define SDD_LORA_FIELDS(X)                          (continued lines)
//     X(std::int64_t, rank, 8, kKey, "adapter rank")
//     X(float, alpha, 16.0F, kKey, "adapter scale is alpha / rank")
//   struct LoraConfig {
//     SDD_CONFIG_FIELDS(SDD_LORA_FIELDS)
//   };
//
// A row is (type, member, default, role, doc). SDD_CONFIG_FIELDS declares the
// members and a visitor over them; everything else is derived from the rows:
//   * hash(): the key fields folded with FNV-1a in row order, nested structs
//     inline, so a struct whose rows keep their order keeps its hash value;
//   * a text form of `path=value` lines (dotted paths into nested structs)
//     with a strict parser, which hands a config to another process;
//   * env application from one binding list per root struct (SDD_* name ->
//     dotted path, unit scale). A later binding of a path wins when both
//     variables are set.
// Members that are not settings (test seams such as std::function clocks)
// stay plain members outside the rows.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/hash.hpp"

namespace sdd::config {

// kKey fields decide what an artifact contains and feed its cache key. kRun
// fields decide only how a run logs, survives faults or is scheduled
// (checkpoint cadence, guards, supervision, paths) and feed no key. A field
// under a kRun row is kRun whatever its own row says.
enum class Role : std::uint8_t { kKey, kRun };

struct Field {
  const char* name;
  Role role;
  const char* doc;
};

#define SDD_CONFIG_MEMBER(type, name, init, role, doc) type name = init;
#define SDD_CONFIG_VISIT(type, name, init, role, doc) \
  visit(::sdd::config::Field{#name, ::sdd::config::Role::role, doc}, self.name);

// Declares one member per row, plus for_each_field(self, visit), which calls
// visit(Field, member) for BASE's rows, then for these rows, in order.
#define SDD_CONFIG_FIELDS_AFTER(BASE, ROWS)               \
  ROWS(SDD_CONFIG_MEMBER)                                 \
  template <typename Self, typename Visit>                \
  static void for_each_field(Self& self, Visit&& visit) { \
    BASE::for_each_field(self, visit);                    \
    ROWS(SDD_CONFIG_VISIT)                                \
  }
#define SDD_CONFIG_FIELDS(ROWS) SDD_CONFIG_FIELDS_AFTER(::sdd::config::NoBase, ROWS)

struct NoBase {
  static void for_each_field(const auto&, const auto&) {}
};

template <typename T>
concept Struct = requires(T& t) { T::for_each_field(t, [](const Field&, auto&) {}); };

// A malformed value of a bound SDD_* variable. Programs exit 64 (EX_USAGE)
// on it, as on a malformed SDD_FAULT spec.
class EnvError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

[[noreturn]] void malformed(std::string_view text, const char* expected);
bool parse_bool(std::string_view text);

// A field's text: integers in decimal, reals as the shortest %g-style text
// that reads back bit-identically, bools true/false (1/0, on/off and yes/no
// parse too), enums as the names their ADL enum_names(E) lists in
// enumerator order, strings and paths as they are (a newline cannot be
// written).
template <typename V>
std::string format(const V& value) {
  if constexpr (std::is_same_v<V, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_enum_v<V>) {
    return std::string{enum_names(value).at(static_cast<std::size_t>(value))};
  } else if constexpr (std::is_integral_v<V>) {
    return std::to_string(value);
  } else if constexpr (std::is_floating_point_v<V>) {
    char buffer[64];
    const auto general = std::chars_format::general;
    return std::string(buffer, std::to_chars(buffer, buffer + 64, value, general).ptr);
  } else {
    std::string text = std::filesystem::path{value}.string();
    if (text.find('\n') != std::string::npos) malformed(text, "a one-line value");
    return text;
  }
}

// Reads the whole of `text` into `out`; throws std::invalid_argument.
template <typename V>
void parse(std::string_view text, V& out) {
  if constexpr (std::is_same_v<V, bool>) {
    out = parse_bool(text);
  } else if constexpr (std::is_enum_v<V>) {
    const auto names = enum_names(out);
    const auto it = std::find(names.begin(), names.end(), text);
    if (it == names.end()) malformed(text, "a known name");
    out = static_cast<V>(it - names.begin());
  } else if constexpr (std::is_arithmetic_v<V>) {
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, out);
    if (error != std::errc{} || stop != end) malformed(text, "a number");
  } else {
    out = V{std::string{text}};
  }
}

// Calls leaf(path, field, member, role) for every non-struct field under
// `config` in row order, depth first; `role` is kRun when the field's row or
// any enclosing row is kRun.
template <typename T, typename Leaf>
void walk(T& config, Leaf&& leaf, const std::string& prefix = "",
          Role outer = Role::kKey) {
  std::remove_const_t<T>::for_each_field(config, [&](const Field& field, auto& member) {
    const Role role = outer == Role::kRun ? Role::kRun : field.role;
    if constexpr (Struct<std::remove_cvref_t<decltype(member)>>) {
      walk(member, leaf, prefix + field.name + ".", role);
    } else {
      leaf(prefix + field.name, field, member, role);
    }
  });
}

// The key fields of `config`, FNV-1a folded in row order.
template <typename T>
std::uint64_t hash(const T& config) {
  std::uint64_t h = kFnvOffset;
  walk(config, [&](const std::string&, const Field&, const auto& member, Role role) {
    if (role != Role::kKey) return;
    if constexpr (std::is_trivially_copyable_v<std::remove_cvref_t<decltype(member)>>) {
      h = fnv1a_value(member, h);
    } else {
      h = fnv1a(format(member), h);
    }
  });
  return h;
}

// Sets the field at dotted `path` from its text form, multiplied by `scale`
// (integer fields only). Throws std::invalid_argument on an unknown path or
// a malformed value.
template <typename T>
void set(T& config, std::string_view path, std::string_view text,
         std::int64_t scale = 1) {
  bool found = false;
  walk(config, [&](const std::string& at, const Field&, auto& member, Role) {
    using M = std::remove_cvref_t<decltype(member)>;
    if (found || at != path) return;
    found = true;
    M value{};
    parse(text, value);
    if constexpr (std::is_integral_v<M> && !std::is_same_v<M, bool>) {
      if (__builtin_mul_overflow(value, static_cast<M>(scale), &value)) {
        malformed(text, "in range once scaled");
      }
    }
    member = value;
  });
  if (!found) malformed(path, "a field path");
}

// One `path=value` line per field, in row order.
template <typename T>
std::string to_text(const T& config) {
  std::string text;
  walk(config, [&](const std::string& path, const Field&, const auto& member, Role) {
    text += path + "=" + format(member) + "\n";
  });
  return text;
}

// Applies `path=value` lines; fields the text does not name keep their
// values. Throws std::invalid_argument on a line without '=' and on
// anything set() rejects.
template <typename T>
void apply_text(T& config, std::string_view text) {
  while (!text.empty()) {
    const std::size_t end = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(std::min(end + 1, text.size()));
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) malformed(line, "a path=value line");
    set(config, line.substr(0, eq), line.substr(eq + 1));
  }
}

struct EnvBinding {
  const char* env;         // SDD_* variable
  const char* path;        // dotted field path under the root struct
  std::int64_t scale = 1;  // unit conversion: 1000 for sec -> ms, 1 << 20 for MB
};

// `config` with every bound field whose variable is set and non-empty
// applied, in list order. Throws EnvError, naming the variable, on a
// malformed value.
template <typename T>
T from_env(std::span<const EnvBinding> bindings, T config = {}) {
  for (const EnvBinding& binding : bindings) {
    const char* value = std::getenv(binding.env);
    if (value == nullptr || *value == '\0') continue;
    try {
      set(config, binding.path, value, binding.scale);
    } catch (const std::invalid_argument& e) {
      throw EnvError(std::string{binding.env} + ": " + e.what());
    }
  }
  return config;
}

}  // namespace sdd::config
