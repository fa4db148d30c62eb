// Minimal JSON reader for the offline event-replay path, with two faces
// over one grammar:
//
//   * parse_flat() reads one top-level object in place into a
//     FlatObject: its members, in source order, as views into the text
//     (or, for a string with escapes, into the object's own unescape
//     arena).  No tree is built and, once the object's buffers have
//     grown to a line's size, nothing is allocated.  Every event line
//     the replay tools read goes through it.
//   * parse() builds a Value tree for nested documents (the /api and
//     status bodies tests read back).
//
// Both keep object keys in source order and distinguish integers from
// doubles, so simulated timestamps and ids round-trip exactly (SimTime
// spans the full int64 range; a double would lose precision past 2^53).
//
// Deliberately small: no serialization (the Event builder writes JSON),
// no DOM mutation, strings decoded with standard escapes (\uXXXX is
// decoded to UTF-8).  Invalid input is rejected, never guessed at.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pandarus::util::json {

enum class Kind : std::uint8_t {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject
};

class Value {
 public:
  using Kind = json::Kind;

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

/// One member of a FlatObject: the scalar fields of a Value, with the
/// key and a string value as views.  A nested array or object member
/// keeps only its kind (the Event builder never writes one).
struct FlatMember {
  std::string_view key;
  Kind kind = Kind::kNull;
  bool is_int = false;
  std::int64_t int_v = 0;
  double num_v = 0.0;
  bool bool_v = false;
  std::string_view str_v;

  /// The conversions of the same-named Value members.
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept;
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;
  [[nodiscard]] std::string_view as_string(
      std::string_view fallback = {}) const noexcept;
};

/// A flat object read in place.  Lookups follow Value's rules: the
/// first member of a name wins, and an absent or wrong-typed member
/// gives the fallback.  Views stay valid while the parsed text lives
/// and until the next parse_flat into this object.
class FlatObject {
 public:
  /// Members in source order.  A producer other than parse_flat
  /// (obs::ColReader::next) may fill it directly with views it owns,
  /// typed as parse_flat would type their rendering.
  std::vector<FlatMember> members;

  [[nodiscard]] const FlatMember* find(std::string_view key) const noexcept;

  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback = 0) const noexcept;
  [[nodiscard]] double get_double(std::string_view key,
                                  double fallback = 0.0) const noexcept;
  [[nodiscard]] bool get_bool(std::string_view key,
                              bool fallback = false) const noexcept;
  [[nodiscard]] std::string_view get_string(
      std::string_view key, std::string_view fallback = {}) const noexcept;

 private:
  friend bool parse_flat(std::string_view text, FlatObject& out);
  /// Unescaped strings, reserved to the text's length before a parse:
  /// unescaping never lengthens a string, so it never reallocates
  /// under the views into it.
  std::string arena_;
};

/// Parses exactly one JSON value (with optional surrounding whitespace);
/// std::nullopt on any syntax error or trailing garbage.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

/// Reads `text` into `out` when it is exactly one object (with optional
/// surrounding whitespace) that parse() accepts; false otherwise, with
/// `out` unspecified.
[[nodiscard]] bool parse_flat(std::string_view text, FlatObject& out);

/// `v` truncated toward zero and clamped to the int64 range, NaN → 0.
/// (A plain cast is undefined outside that range, e.g. for the
/// 18446744073709551615 an Event's uint64 field can render.)
[[nodiscard]] std::int64_t saturating_int(double v) noexcept;

}  // namespace pandarus::util::json
