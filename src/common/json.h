// JSON in one module: the strict reader (JsonValue, ParseJson) the daemon
// and the recording loader parse with, and the writer every JSON-emitting
// layer renders with. One %.17g rendering keeps served and batch doubles
// bit-identical.
//
// The reader is a recursive-descent parser, strict where a network-facing
// endpoint needs it: it rejects trailing garbage, unterminated literals,
// invalid numbers (NaN/Inf/hex), bad escapes, duplicate keys, and nesting
// past a fixed depth cap so hostile bodies cannot overflow the stack.
//
// JsonWriter builds whole documents (responses, snapshots); the free
// functions serve printf-style emitters that only need the primitives.

#ifndef RHYTHM_SRC_COMMON_JSON_H_
#define RHYTHM_SRC_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/parse_exact.h"

namespace rhythm {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  // A string's decoded text; for an integer literal (no '.', 'e' or 'E'),
  // the literal as written, which GetInt reads exactly; empty for any other
  // number, which GetInt refuses anyway.
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered; duplicate keys are rejected at parse time.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  // This number as a T when its literal is an integer that fits T; false
  // (and *out untouched) for a fraction, an exponent, a value outside T's
  // range or a value that is not a number. No double in between, so every
  // 64-bit integer reads exactly.
  template <typename T>
  bool GetInt(T* out) const {
    return is_number() && ParseExact(string, out);
  }

  // Object member lookup; null when absent or this is not an object.
  const JsonValue* Find(const std::string& key) const;

  // Typed member accessors with defaults — the idiom request translation
  // uses for optional fields. A present member of the wrong type is NOT
  // coerced; it reads as the fallback, and callers that care use Find().
  double NumberOr(const std::string& key, double fallback) const;
  // Exact for an integer literal within int64_t; any other number
  // truncates toward zero, saturating outside int64_t's range.
  int64_t IntOr(const std::string& key, int64_t fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
  std::string StringOr(const std::string& key, const std::string& fallback) const;
};

// Deepest container nesting the parser accepts (arrays + objects combined).
inline constexpr int kMaxJsonDepth = 64;

// Parses `text` as one JSON document. Returns true and fills `out` on
// success; false with a position-stamped message in `error` otherwise.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// %.17g: every double bit-exact across a write/parse round trip, NaN and
// infinities as nan/inf. For text that is not JSON (CSV, Prometheus).
std::string ExactNum(double value);

// A JSON number: ExactNum, or `null` for NaN and ±inf, which JSON cannot
// spell (JSON.stringify's rule).
std::string JsonNum(double value);

// Body of a JSON string literal for `text` (no surrounding quotes): escapes
// quote, backslash, \n, \t and renders other control bytes as \u00xx.
std::string JsonEscape(const std::string& text);

// Streaming JSON document builder. Usage:
//   JsonWriter w;
//   w.BeginObject().Key("emu").Number(0.81).Key("pods").BeginArray();
//   ...
//   w.EndArray().EndObject();
//   std::string body = std::move(w).str();
// The writer tracks nesting depth and element counts, inserting commas; it
// does not validate key/value alternation beyond what the methods imply.
class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Separate();
    out_ += '{';
    fresh_.push_back(true);
    return *this;
  }

  JsonWriter& EndObject() {
    out_ += '}';
    fresh_.pop_back();
    return *this;
  }

  JsonWriter& BeginArray() {
    Separate();
    out_ += '[';
    fresh_.push_back(true);
    return *this;
  }

  JsonWriter& EndArray() {
    out_ += ']';
    fresh_.pop_back();
    return *this;
  }

  JsonWriter& Key(const std::string& key) {
    Separate();
    out_ += '"';
    out_ += JsonEscape(key);
    out_ += "\":";
    after_key_ = true;
    return *this;
  }

  JsonWriter& String(const std::string& value) {
    Separate();
    out_ += '"';
    out_ += JsonEscape(value);
    out_ += '"';
    return *this;
  }

  JsonWriter& Number(double value) {
    Separate();
    out_ += JsonNum(value);
    return *this;
  }

  JsonWriter& Int(int64_t value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }

  JsonWriter& UInt(uint64_t value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }

  JsonWriter& Bool(bool value) {
    Separate();
    out_ += value ? "true" : "false";
    return *this;
  }

  JsonWriter& Null() {
    Separate();
    out_ += "null";
    return *this;
  }

  // Pre-rendered JSON spliced in verbatim (e.g. a nested document built
  // elsewhere). The caller vouches for its validity.
  JsonWriter& Raw(const std::string& json) {
    Separate();
    out_ += json;
    return *this;
  }

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  // Emits the separating comma for the second and later elements of the
  // innermost container; a value directly after Key() never separates.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (fresh_.empty()) {
      return;
    }
    if (!fresh_.back()) {
      out_ += ',';
    }
    fresh_.back() = false;
  }

  std::string out_;
  std::vector<bool> fresh_;  // per open container: no element emitted yet.
  bool after_key_ = false;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_JSON_H_
