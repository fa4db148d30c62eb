// Minimal JSON value parser for the offline event-replay path: parses
// one value per call (NDJSON consumers call it once per line), keeps
// object keys in source order, and distinguishes integers from doubles
// so simulated timestamps and ids round-trip exactly (SimTime spans the
// full int64 range; a double would lose precision past 2^53).
//
// Deliberately small: no serialization (the Event builder writes JSON),
// no DOM mutation, strings decoded with standard escapes (\uXXXX is
// decoded to UTF-8).  Invalid input yields std::nullopt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pandarus::util::json {

class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  /// Numbers carry both representations; `is_int` marks values written
  /// without fraction/exponent that fit an int64 (parsed losslessly).
  /// Otherwise `int_v` is saturating_int(num_v).
  double num_v = 0.0;
  std::int64_t int_v = 0;
  bool is_int = false;
  std::string str_v;
  std::vector<Value> arr;
  /// Members in source order (event columns keep their emission order).
  std::vector<std::pair<std::string, Value>> obj;

  /// First member with this key, or nullptr (objects only).
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;

  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept;
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;
  [[nodiscard]] std::string_view as_string(
      std::string_view fallback = {}) const noexcept;

  /// Member lookups with fallbacks, for flat event objects.
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] double get_double(std::string_view key,
                                  double fallback = 0.0) const noexcept;
  [[nodiscard]] bool get_bool(std::string_view key,
                              bool fallback = false) const noexcept;
  [[nodiscard]] std::string_view get_string(
      std::string_view key, std::string_view fallback = {}) const noexcept;
};

/// Parses exactly one JSON value (with optional surrounding whitespace);
/// std::nullopt on any syntax error or trailing garbage.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

/// `v` truncated toward zero and clamped to the int64 range, NaN → 0.
/// (A plain cast is undefined outside that range, e.g. for the
/// 18446744073709551615 an Event's uint64 field can render.)
[[nodiscard]] std::int64_t saturating_int(double v) noexcept;

}  // namespace pandarus::util::json
