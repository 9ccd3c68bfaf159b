#include "src/common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace rhythm {

std::string ExactNum(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonNum(double value) {
  return std::isfinite(value) ? ExactNum(value) : "null";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->number : fallback;
}

int64_t JsonValue::IntOr(const std::string& key, int64_t fallback) const {
  const JsonValue* value = Find(key);
  if (value == nullptr || !value->is_number()) {
    return fallback;
  }
  int64_t exact = 0;
  if (value->GetInt(&exact)) {
    return exact;
  }
  // Parsed numbers are finite, but converting one outside int64_t's range
  // [-2^63, 2^63) is undefined behaviour.
  if (value->number >= 0x1p63) {
    return std::numeric_limits<int64_t>::max();
  }
  if (value->number < -0x1p63) {
    return std::numeric_limits<int64_t>::min();
  }
  return static_cast<int64_t>(value->number);
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_bool() ? value->boolean : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string() ? value->string : fallback;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out, 0)) {
      return false;
    }
    SkipSpace();
    if (at_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return true;
  }

 private:
  bool Fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "json: " + what + " at byte " + std::to_string(at_);
    }
    return false;
  }

  void SkipSpace() {
    while (at_ < text_.size()) {
      const char c = text_[at_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++at_;
    }
  }

  bool Literal(const char* word) {
    const size_t length = std::strlen(word);
    if (text_.compare(at_, length, word) != 0) {
      return Fail(std::string("expected '") + word + "'");
    }
    at_ += length;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) {
      return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    if (at_ >= text_.size()) {
      return Fail("unexpected end of document");
    }
    switch (text_[at_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++at_;  // '{'
    SkipSpace();
    if (at_ < text_.size() && text_[at_] == '}') {
      ++at_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (at_ >= text_.size() || text_[at_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      for (const auto& [existing, value] : out->object) {
        (void)value;
        if (existing == key) {
          return Fail("duplicate object key '" + key + "'");
        }
      }
      SkipSpace();
      if (at_ >= text_.size() || text_[at_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++at_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (at_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[at_] == ',') {
        ++at_;
        continue;
      }
      if (text_[at_] == '}') {
        ++at_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++at_;  // '['
    SkipSpace();
    if (at_ < text_.size() && text_[at_] == ']') {
      ++at_;
      return true;
    }
    for (;;) {
      SkipSpace();
      JsonValue element;
      if (!ParseValue(&element, depth + 1)) {
        return false;
      }
      out->array.push_back(std::move(element));
      SkipSpace();
      if (at_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[at_] == ',') {
        ++at_;
        continue;
      }
      if (text_[at_] == ']') {
        ++at_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++at_;  // opening quote.
    out->clear();
    while (at_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[at_]);
      if (c == '"') {
        ++at_;
        return true;
      }
      if (c < 0x20) {
        return Fail("raw control byte in string");
      }
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++at_;
        continue;
      }
      if (++at_ >= text_.size()) {
        break;
      }
      const char esc = text_[at_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (at_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[at_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape digit");
            }
          }
          at_ += 4;
          // UTF-8-encode the code point (surrogates pass through as their
          // raw value; the obs exporters' writer only emits \u00xx).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  // Strict JSON number grammar, then strtod over the validated span — so
  // "0x10", "1.", ".5", "+1", "inf" and "nan" are all rejected.
  bool ParseNumber(JsonValue* out) {
    const size_t start = at_;
    if (at_ < text_.size() && text_[at_] == '-') {
      ++at_;
    }
    if (at_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[at_]))) {
      return Fail("invalid value");
    }
    if (text_[at_] == '0') {
      ++at_;  // leading zero may not be followed by more digits.
    } else {
      while (at_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[at_]))) {
        ++at_;
      }
    }
    const size_t integer_end = at_;
    if (at_ < text_.size() && text_[at_] == '.') {
      ++at_;
      if (at_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[at_]))) {
        return Fail("digit required after decimal point");
      }
      while (at_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[at_]))) {
        ++at_;
      }
    }
    if (at_ < text_.size() && (text_[at_] == 'e' || text_[at_] == 'E')) {
      ++at_;
      if (at_ < text_.size() && (text_[at_] == '+' || text_[at_] == '-')) {
        ++at_;
      }
      if (at_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[at_]))) {
        return Fail("digit required in exponent");
      }
      while (at_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[at_]))) {
        ++at_;
      }
    }
    out->type = JsonValue::Type::kNumber;
    const char* first = text_.data() + start;
    if (at_ == integer_end) {
      out->string.assign(first, at_ - start);  // no fraction or exponent.
    }
    // In a document that parses, strtod stops where the grammar did: what
    // follows a number there is whitespace, ',', ']', '}' or the final NUL.
    out->number = std::strtod(first, nullptr);
    if (!std::isfinite(out->number)) {
      return Fail("number out of range");
    }
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t at_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  *out = JsonValue{};
  Parser parser(text, error);
  return parser.Parse(out);
}

}  // namespace rhythm
