#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <exception>

namespace dmr::obs {

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parse one document; `error` is set (with an offset) on failure.
  bool parse(JsonValue& out, std::string& error) {
    skip_space();
    if (!parse_value(out, error)) return false;
    skip_space();
    if (pos_ != text_.size()) {
      error = fail("trailing content after the document");
      return false;
    }
    return true;
  }

 private:
  std::string fail(const std::string& what) const {
    return what + " at offset " + std::to_string(pos_);
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out, std::string& error) {
    if (pos_ >= text_.size()) {
      error = fail("unexpected end of document");
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, error);
    if (c == '[') return parse_array(out, error);
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parse_string(out.text, error);
    }
    if (c == 't' || c == 'f') return parse_literal(out, error);
    if (c == 'n') return parse_null(out, error);
    return parse_number(out, error);
  }

  bool parse_object(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        error = fail("expected an object key");
        return false;
      }
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        error = fail("expected ':' after key '" + key + "'");
        return false;
      }
      ++pos_;
      skip_space();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_space();
      if (pos_ >= text_.size()) {
        error = fail("unterminated object");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      error = fail("expected ',' or '}' in object");
      return false;
    }
  }

  bool parse_array(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_space();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.items.push_back(std::move(value));
      skip_space();
      if (pos_ >= text_.size()) {
        error = fail("unterminated array");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      error = fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool parse_string(std::string& out, std::string& error) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 5 >= text_.size()) {
              error = fail("truncated \\u escape");
              return false;
            }
            // Recorder output is ASCII; decode the low byte.
            const std::string hex = text_.substr(pos_ + 2, 4);
            out.push_back(
                static_cast<char>(std::stoi(hex, nullptr, 16) & 0xff));
            pos_ += 4;
            break;
          }
          default:
            error = fail("bad escape character");
            return false;
        }
        pos_ += 2;
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    error = fail("unterminated string");
    return false;
  }

  bool parse_literal(JsonValue& out, std::string& error) {
    out.kind = JsonValue::Kind::Bool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    error = fail("bad literal");
    return false;
  }

  bool parse_null(JsonValue& out, std::string& error) {
    if (text_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonValue::Kind::Null;
      pos_ += 4;
      return true;
    }
    error = fail("bad literal");
    return false;
  }

  bool parse_number(JsonValue& out, std::string& error) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      error = fail("expected a value");
      return false;
    }
    try {
      out.kind = JsonValue::Kind::Number;
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      error = fail("bad number");
      return false;
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_json(const std::string& text, JsonValue& out, std::string& error) {
  return JsonParser(text).parse(out, error);
}

double json_number(const JsonValue* value, double fallback) {
  return value != nullptr && value->kind == JsonValue::Kind::Number
             ? value->number
             : fallback;
}

std::string json_string(const JsonValue* value) {
  return value != nullptr && value->kind == JsonValue::Kind::String
             ? value->text
             : std::string();
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += hex;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace dmr::obs
