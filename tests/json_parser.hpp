// Minimal recursive-descent JSON parser, test-only: just enough to validate
// the Chrome trace and metrics JSON exports without an external dependency.
// parse() throws std::runtime_error on malformed input.
#pragma once

#include <cctype>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace forumcast::obs {

struct JsonValue;
using JsonObject = std::map<std::string, std::shared_ptr<JsonValue>>;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::shared_ptr<JsonValue> parse() {
    auto value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing characters");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  std::shared_ptr<JsonValue> parse_value() {
    skip_ws();
    const char c = peek();
    auto value = std::make_shared<JsonValue>();
    if (c == '{') {
      value->value = parse_object();
    } else if (c == '[') {
      value->value = parse_array();
    } else if (c == '"') {
      value->value = parse_string();
    } else if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      value->value = true;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      value->value = false;
    } else if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      value->value = nullptr;
    } else {
      value->value = parse_number();
    }
    return value;
  }

  JsonObject parse_object() {
    JsonObject object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return object;
    }
  }

  JsonArray parse_array() {
    JsonArray array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char escaped = peek();
        ++pos_;
        switch (escaped) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u':
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            out += "\\u" + text_.substr(pos_, 4);  // opaque, kept verbatim
            pos_ += 4;
            break;
          default: out.push_back(escaped);
        }
      } else {
        // Strict JSON: control characters must be escaped inside strings.
        if (static_cast<unsigned char>(c) < 0x20) {
          throw std::runtime_error("unescaped control character in string");
        }
        out.push_back(c);
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    return std::stod(text_.substr(start, pos_ - start));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

inline const JsonObject& as_object(const std::shared_ptr<JsonValue>& value) {
  return std::get<JsonObject>(value->value);
}
inline const JsonArray& as_array(const std::shared_ptr<JsonValue>& value) {
  return std::get<JsonArray>(value->value);
}
inline double as_number(const std::shared_ptr<JsonValue>& value) {
  return std::get<double>(value->value);
}
inline const std::string& as_string(
    const std::shared_ptr<JsonValue>& value) {
  return std::get<std::string>(value->value);
}

}  // namespace forumcast::obs
