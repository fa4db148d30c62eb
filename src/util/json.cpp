#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace pandarus::util::json {
namespace {

/// strtod over a token that is not NUL-terminated where it sits.
double to_double(std::string_view token) {
  char buf[64];
  if (token.size() < sizeof buf) {
    std::memcpy(buf, token.data(), token.size());
    buf[token.size()] = '\0';
    return std::strtod(buf, nullptr);
  }
  return std::strtod(std::string(token).c_str(), nullptr);
}

/// The one grammar.  value() builds a Value tree; flat_object() reads a
/// top-level object's members in place.  Both run the same object,
/// string, number and literal scanners.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    skip_ws();
    Value v;
    if (!value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;
    return v;
  }

  /// The whole text as one object, members appended to `members`; keys
  /// and strings with escapes decode into `arena`.
  bool flat_object(std::vector<FlatMember>& members, std::string& arena) {
    skip_ws();
    if (peek() != '{') return false;
    const bool ok = object(arena, [&](std::string_view key) {
      FlatMember& m = members.emplace_back();
      m.key = key;
      return flat_value(m, arena);
    });
    if (!ok) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value(Value& out) {
    switch (peek()) {
      case '{':
        out.kind = Kind::kObject;
        return object(unescaped_, [&](std::string_view key) {
          std::string name(key);
          Value member;
          if (!value(member)) return false;
          out.obj.emplace_back(std::move(name), std::move(member));
          return true;
        });
      case '[': return array(out);
      case '"': {
        out.kind = Kind::kString;
        std::string_view s;
        if (!string(s, unescaped_)) return false;
        out.str_v.assign(s);
        return true;
      }
      default: return scalar(out);
    }
  }

  /// A member value of a flat object: nested values are validated and
  /// kept as their kind alone.
  bool flat_value(FlatMember& out, std::string& arena) {
    switch (peek()) {
      case '{':
      case '[': {
        out.kind = peek() == '{' ? Kind::kObject : Kind::kArray;
        Value nested;
        return value(nested);
      }
      case '"':
        out.kind = Kind::kString;
        return string(out.str_v, arena);
      default: return scalar(out);
    }
  }

  /// '{' at pos_ through its '}'.  Calls `member(key)` with pos_ at each
  /// member's value; the member reads the value.  Keys with escapes
  /// decode into `arena`.
  template <class Member>
  bool object(std::string& arena, Member&& member) {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      std::string_view key;
      if (!string(key, arena)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!member(key)) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array(Value& out) {
    out.kind = Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      Value element;
      if (!value(element)) return false;
      out.arr.push_back(std::move(element));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  /// A string token at pos_.  `out` views its decoded bytes: the text
  /// itself when the token holds no escape, else bytes appended to
  /// `arena` — never more than the token's own length, since no escape
  /// decodes to more bytes than it spells.
  bool string(std::string_view& out, std::string& arena) {
    if (peek() != '"') return false;
    const std::size_t start = ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == '"') {
      out = text_.substr(start, pos_ - start);
      ++pos_;  // closing quote
      return true;
    }
    const std::size_t from = arena.size();
    arena.append(text_.substr(start, pos_ - start));
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
          case '"': arena += '"'; break;
          case '\\': arena += '\\'; break;
          case '/': arena += '/'; break;
          case 'b': arena += '\b'; break;
          case 'f': arena += '\f'; break;
          case 'n': arena += '\n'; break;
          case 'r': arena += '\r'; break;
          case 't': arena += '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return false;
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              ++pos_;
              const char h = text_[pos_];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return false;
              }
            }
            append_utf8(arena, cp);
            break;
          }
          default: return false;
        }
        ++pos_;
      } else {
        arena += c;
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    out = std::string_view(arena).substr(from);
    return true;
  }

  /// true, false, null or a number, into a Value or a FlatMember.
  template <class Out>
  bool scalar(Out& out) {
    switch (peek()) {
      case 't':
        out.kind = Kind::kBool;
        out.bool_v = true;
        return literal("true");
      case 'f':
        out.kind = Kind::kBool;
        out.bool_v = false;
        return literal("false");
      case 'n':
        out.kind = Kind::kNull;
        return literal("null");
      default: return number(out);
    }
  }

  template <class Out>
  bool number(Out& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
      digits = true;
    }
    if (!digits) return false;
    bool integral = true;
    if (peek() == '.') {
      integral = false;
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) return false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    const char* const end = token.data() + token.size();
    out.kind = Kind::kNumber;
    if (integral) {
      std::int64_t v = 0;
      const auto [stop, ec] = std::from_chars(token.data(), end, v);
      if (ec == std::errc() && stop == end) {
        out.is_int = true;
        out.int_v = v;
        out.num_v = static_cast<double>(v);
        return true;
      }
    }
    out.is_int = false;
    out.num_v = to_double(token);
    out.int_v = saturating_int(out.num_v);
    return true;
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  /// Decoded escapes for value(), copied out right after each string.
  std::string unescaped_;
};

// Conversions and lookups shared by Value and FlatMember / FlatObject,
// so the two follow one set of rules.

template <class M>
std::int64_t int_of(const M& m, std::int64_t fallback) noexcept {
  if (m.kind != Kind::kNumber) return fallback;
  return m.is_int ? m.int_v : saturating_int(m.num_v);
}

template <class M>
double double_of(const M& m, double fallback) noexcept {
  return m.kind == Kind::kNumber ? m.num_v : fallback;
}

template <class M>
bool bool_of(const M& m, bool fallback) noexcept {
  return m.kind == Kind::kBool ? m.bool_v : fallback;
}

template <class M>
std::string_view string_of(const M& m, std::string_view fallback) noexcept {
  return m.kind == Kind::kString ? std::string_view(m.str_v) : fallback;
}

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t Value::as_int(std::int64_t fallback) const noexcept {
  return int_of(*this, fallback);
}

double Value::as_double(double fallback) const noexcept {
  return double_of(*this, fallback);
}

bool Value::as_bool(bool fallback) const noexcept {
  return bool_of(*this, fallback);
}

std::string_view Value::as_string(std::string_view fallback) const noexcept {
  return string_of(*this, fallback);
}

std::int64_t Value::get_int(std::string_view key,
                            std::int64_t fallback) const noexcept {
  const Value* v = find(key);
  return v != nullptr ? v->as_int(fallback) : fallback;
}

double Value::get_double(std::string_view key, double fallback) const noexcept {
  const Value* v = find(key);
  return v != nullptr ? v->as_double(fallback) : fallback;
}

bool Value::get_bool(std::string_view key, bool fallback) const noexcept {
  const Value* v = find(key);
  return v != nullptr ? v->as_bool(fallback) : fallback;
}

std::string_view Value::get_string(std::string_view key,
                                   std::string_view fallback) const noexcept {
  const Value* v = find(key);
  return v != nullptr ? v->as_string(fallback) : fallback;
}

std::int64_t FlatMember::as_int(std::int64_t fallback) const noexcept {
  return int_of(*this, fallback);
}

double FlatMember::as_double(double fallback) const noexcept {
  return double_of(*this, fallback);
}

bool FlatMember::as_bool(bool fallback) const noexcept {
  return bool_of(*this, fallback);
}

std::string_view FlatMember::as_string(
    std::string_view fallback) const noexcept {
  return string_of(*this, fallback);
}

const FlatMember* FlatObject::find(std::string_view key) const noexcept {
  for (const FlatMember& m : members) {
    if (m.key == key) return &m;
  }
  return nullptr;
}

std::int64_t FlatObject::get_int(std::string_view key,
                                 std::int64_t fallback) const noexcept {
  const FlatMember* m = find(key);
  return m != nullptr ? m->as_int(fallback) : fallback;
}

double FlatObject::get_double(std::string_view key,
                              double fallback) const noexcept {
  const FlatMember* m = find(key);
  return m != nullptr ? m->as_double(fallback) : fallback;
}

bool FlatObject::get_bool(std::string_view key, bool fallback) const noexcept {
  const FlatMember* m = find(key);
  return m != nullptr ? m->as_bool(fallback) : fallback;
}

std::string_view FlatObject::get_string(
    std::string_view key, std::string_view fallback) const noexcept {
  const FlatMember* m = find(key);
  return m != nullptr ? m->as_string(fallback) : fallback;
}

std::optional<Value> parse(std::string_view text) {
  return Parser(text).run();
}

bool parse_flat(std::string_view text, FlatObject& out) {
  out.members.clear();
  out.arena_.clear();
  out.arena_.reserve(text.size());
  return Parser(text).flat_object(out.members, out.arena_);
}

std::int64_t saturating_int(double v) noexcept {
  using Limits = std::numeric_limits<std::int64_t>;
  if (std::isnan(v)) return 0;
  // -2^63 is exact in a double; 2^63 is the first value past the range.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (v >= kTwo63) return Limits::max();
  if (v < -kTwo63) return Limits::min();
  return static_cast<std::int64_t>(v);
}

}  // namespace pandarus::util::json
