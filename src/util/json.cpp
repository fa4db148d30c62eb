#include "util/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace pandarus::util::json {
namespace {

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

 private:
  bool value(Value& out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': {
        out.kind = Value::Kind::kString;
        return string(out.str_v);
      }
      case 't':
        out.kind = Value::Kind::kBool;
        out.bool_v = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        out.bool_v = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::kNull;
        return literal("null");
      default: return number(out);
    }
  }

  bool object(Value& out) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      Value member;
      if (!value(member)) return false;
      out.obj.emplace_back(std::move(key), std::move(member));
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
    out.kind = Value::Kind::kArray;
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

  bool string(std::string& out) {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
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
            append_utf8(out, cp);
            break;
          }
          default: return false;
        }
        ++pos_;
      } else {
        out += c;
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number(Value& out) {
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
    const std::string token(text_.substr(start, pos_ - start));
    out.kind = Value::Kind::kNumber;
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out.is_int = true;
        out.int_v = v;
        out.num_v = static_cast<double>(v);
        return true;
      }
    }
    out.is_int = false;
    out.num_v = std::strtod(token.c_str(), nullptr);
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
};

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t Value::as_int(std::int64_t fallback) const noexcept {
  if (kind != Kind::kNumber) return fallback;
  return is_int ? int_v : saturating_int(num_v);
}

double Value::as_double(double fallback) const noexcept {
  return kind == Kind::kNumber ? num_v : fallback;
}

bool Value::as_bool(bool fallback) const noexcept {
  return kind == Kind::kBool ? bool_v : fallback;
}

std::string_view Value::as_string(std::string_view fallback) const noexcept {
  return kind == Kind::kString ? std::string_view(str_v) : fallback;
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

std::optional<Value> parse(std::string_view text) {
  return Parser(text).run();
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
