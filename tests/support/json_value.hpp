// The JSON reader the observability tests check JsonWriter's output
// with: a small recursive-descent parser whose integral lexemes stay
// int64-exact (counters exceed double's 2^53 mantissa in long runs).
// Nothing in src/ reads JSON; this is a test oracle only.
#ifndef SDMMON_TESTS_SUPPORT_JSON_VALUE_HPP
#define SDMMON_TESTS_SUPPORT_JSON_VALUE_HPP

#include <cctype>
#include <charconv>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sdmmon::testsupport {

/// Parsed JSON document node. Numbers that look integral are kept as
/// int64 exactly (counters exceed double's 2^53 mantissa in long runs);
/// everything else becomes double.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    Null, Bool, Int, Double, String, Array, Object
  };

  /// Parse one document; throws std::runtime_error with position info on
  /// malformed input or trailing garbage.
  static JsonValue parse(std::string_view text);

  /// Integral value (valid for Int; truncates for Double).
  std::int64_t as_int() const;
  const std::string& as_string() const { return string_; }

  // Array access.
  std::size_t size() const { return items_.size(); }
  const JsonValue& operator[](std::size_t index) const {
    return items_.at(index);
  }

  // Object access.
  const JsonValue& at(const std::string& key) const;

 private:
  Kind kind_ = Kind::Null;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;

  friend class JsonParser;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document();

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value();
  std::string parse_string();
  JsonValue parse_number();

  std::string_view text_;
  std::size_t pos_ = 0;
};

inline JsonValue JsonParser::parse_document() {
  skip_ws();
  JsonValue v = parse_value();
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters");
  return v;
}

inline std::string JsonParser::parse_string() {
  expect('"');
  std::string out;
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    char e = text_[pos_++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail("bad hex digit in \\u escape");
        }
        // Minimal UTF-8 encoding (no surrogate-pair handling; our
        // emitters only escape control characters).
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: fail("unknown escape");
    }
  }
}

inline JsonValue JsonParser::parse_number() {
  const std::size_t start = pos_;
  if (peek() == '-') ++pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
          text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  std::string_view lexeme = text_.substr(start, pos_ - start);
  JsonValue v;
  const bool integral =
      lexeme.find('.') == std::string_view::npos &&
      lexeme.find('e') == std::string_view::npos &&
      lexeme.find('E') == std::string_view::npos;
  if (integral) {
    std::int64_t i = 0;
    auto [ptr, ec] =
        std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), i);
    if (ec == std::errc() && ptr == lexeme.data() + lexeme.size()) {
      v.kind_ = JsonValue::Kind::Int;
      v.int_ = i;
      return v;
    }
  }
  double d = 0;
  auto [ptr, ec] =
      std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), d);
  if (ec != std::errc() || ptr != lexeme.data() + lexeme.size()) {
    fail("malformed number");
  }
  v.kind_ = JsonValue::Kind::Double;
  v.double_ = d;
  v.int_ = static_cast<std::int64_t>(d);
  return v;
}

inline JsonValue JsonParser::parse_value() {
  skip_ws();
  char c = peek();
  if (c == '{') {
    ++pos_;
    JsonValue v;
    v.kind_ = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }
  if (c == '[') {
    ++pos_;
    JsonValue v;
    v.kind_ = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }
  if (c == '"') {
    JsonValue v;
    v.kind_ = JsonValue::Kind::String;
    v.string_ = parse_string();
    return v;
  }
  if (consume_literal("true") || consume_literal("false")) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::Bool;  // no test reads a boolean's value
    return v;
  }
  if (consume_literal("null")) return JsonValue();
  if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
    return parse_number();
  }
  fail("unexpected character");
}

inline JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

inline std::int64_t JsonValue::as_int() const {
  return kind_ == Kind::Double ? static_cast<std::int64_t>(double_) : int_;
}

inline const JsonValue& JsonValue::at(const std::string& key) const {
  auto it = members_.find(key);
  if (it == members_.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

}  // namespace sdmmon::testsupport

#endif  // SDMMON_TESTS_SUPPORT_JSON_VALUE_HPP
