// JSON body codec for the serving daemon: a small recursive-descent parser
// producing a JsonValue tree. Strict where it matters for a network-facing
// endpoint — rejects trailing garbage, unterminated literals, invalid
// numbers (NaN/Inf/hex), bad escapes, and nesting past a fixed depth cap so
// hostile bodies cannot overflow the stack. Writing goes through
// src/common/json.h (JsonWriter), shared with the obs exporters.

#ifndef RHYTHM_SRC_SERVE_JSON_H_
#define RHYTHM_SRC_SERVE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rhythm {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
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

  // Object member lookup; null when absent or this is not an object.
  const JsonValue* Find(const std::string& key) const;

  // Typed member accessors with defaults — the idiom request translation
  // uses for optional fields. A present member of the wrong type is NOT
  // forgiven; callers that care use Find() + RequireX below.
  double NumberOr(const std::string& key, double fallback) const;
  // Truncates toward zero, saturating numbers outside int64_t's range.
  int64_t IntOr(const std::string& key, int64_t fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
  std::string StringOr(const std::string& key, const std::string& fallback) const;
};

// Deepest container nesting the parser accepts (arrays + objects combined).
inline constexpr int kMaxJsonDepth = 64;

// Parses `text` as one JSON document. Returns true and fills `out` on
// success; false with a position-stamped message in `error` otherwise.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

}  // namespace rhythm

#endif  // RHYTHM_SRC_SERVE_JSON_H_
