// Shared command-line parsing for the tools/ CLIs.
//
// Every tool parses flags the same way — walk argv once, `--flag value` /
// `--flag=value` pairs plus a few valueless switches, reject anything
// unrecognized with exit status 2 — and several of them share whole flag
// families (the search budget of adversary_search and chaos_fuzz,
// seed/jobs/output paths). FlagParser centralizes the walk; the Match*
// helpers bundle the shared families so the tools cannot drift apart on
// spelling or semantics.
//
// Usage:
//   FlagParser flags(argc, argv);
//   while (flags.Next()) {
//     if (flags.U64("--seed", &seed) || flags.Int("--jobs", &jobs)) {
//       continue;
//     }
//     if (flags.Is("--scan")) { fail_fast = false; continue; }
//     std::fprintf(stderr, "tool: unknown or incomplete option '%s'\n",
//                  flags.arg().c_str());
//     return 2;
//   }
//
// A typed matcher returns false for a non-matching argument, for a matching
// flag with no value left to consume, and for a numeric flag whose value is
// empty, has trailing characters or is out of range. In every case the
// argument stays current, so the caller's fall-through prints the same
// "unknown or incomplete option" diagnostic naming the flag.

#ifndef RHYTHM_TOOLS_COMMON_FLAGS_H_
#define RHYTHM_TOOLS_COMMON_FLAGS_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "src/common/parse_exact.h"

namespace rhythm {

class FlagParser {
 public:
  FlagParser(int argc, char** argv) : argc_(argc), argv_(argv) {}

  // Advances to the next argument; false when argv is exhausted.
  bool Next() { return ++index_ < argc_; }

  // The current argument, for diagnostics.
  std::string arg() const { return argv_[index_]; }

  // Valueless switch (exact match only; `--flag=x` never matches).
  bool Is(const char* flag) const {
    return std::strcmp(argv_[index_], flag) == 0;
  }

  // `--flag value` / `--flag=value` matchers: on match they consume the
  // value and return true; a matching flag missing its value, or (for the
  // numeric ones) carrying a malformed value, is NOT consumed (false).
  bool Int(const char* flag, int* out) { return Number(flag, out); }
  bool U64(const char* flag, uint64_t* out) { return Number(flag, out); }
  bool Double(const char* flag, double* out) { return Number(flag, out); }

  bool Str(const char* flag, std::string* out) {
    const char* value = Value(flag);
    if (value == nullptr) {
      return false;
    }
    *out = value;
    return true;
  }

  // `--flag on|off` (also accepts true/false/1/0; anything else reads as
  // off).
  bool OnOff(const char* flag, bool* out) {
    const char* value = Value(flag);
    if (value == nullptr) {
      return false;
    }
    *out = std::strcmp(value, "on") == 0 || std::strcmp(value, "true") == 0 ||
           std::strcmp(value, "1") == 0;
    return true;
  }

 private:
  const char* Value(const char* flag) {
    const char* arg = argv_[index_];
    const size_t length = std::strlen(flag);
    if (std::strncmp(arg, flag, length) != 0) {
      return nullptr;
    }
    if (arg[length] == '=') {
      return arg + length + 1;
    }
    if (arg[length] == '\0' && index_ + 1 < argc_) {
      return argv_[++index_];
    }
    return nullptr;
  }

  // The whole value must parse as a T (ParseExact: no empty value, sign on
  // an unsigned type, out-of-range number or trailing characters). On
  // failure the flag stays current and its value unconsumed.
  template <typename T>
  bool Number(const char* flag, T* out) {
    const int at = index_;
    const char* value = Value(flag);
    if (value == nullptr || !ParseExact(value, out)) {
      index_ = at;
      return false;
    }
    return true;
  }

  int argc_;
  char** argv_;
  int index_ = 0;
};

// The search-budget family shared by adversary_search and chaos_fuzz (and
// any future sweeping tool): generations x population sizes the work,
// wall-clock-budget-s caps it at chunk boundaries (see tools/README.md).
inline bool MatchBudgetFlags(FlagParser& flags, int* generations,
                             int* population, double* wall_clock_budget_s) {
  return flags.Int("--generations", generations) ||
         flags.Int("--population", population) ||
         flags.Double("--wall-clock-budget-s", wall_clock_budget_s);
}

}  // namespace rhythm

#endif  // RHYTHM_TOOLS_COMMON_FLAGS_H_
