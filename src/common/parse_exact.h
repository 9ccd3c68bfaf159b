// The one exact text-to-number read, shared by the JSON reader's integer
// reads, the tools' flag parser and the environment knobs: "7x", "1.5" for
// an integer and out-of-range values fail everywhere alike.

#ifndef RHYTHM_SRC_COMMON_PARSE_EXACT_H_
#define RHYTHM_SRC_COMMON_PARSE_EXACT_H_

#include <charconv>
#include <string_view>
#include <system_error>

namespace rhythm {

// Parses all of `text` as a T with std::from_chars. False, with *out
// untouched, for empty text, leading whitespace or '+', a sign on an
// unsigned T, a fraction or exponent on an integer T, a value outside T's
// range, or any trailing character.
template <typename T>
bool ParseExact(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  T parsed{};
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error != std::errc() || stop != end) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_PARSE_EXACT_H_
