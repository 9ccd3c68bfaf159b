// FlagParser (tools/common_flags.h): the one argv walk every tools/ CLI
// shares. Both value forms parse, a flag missing its value is left for the
// caller's diagnostic, and a malformed number is rejected the same way.

#include "tools/common_flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rhythm {
namespace {

// Owns the strings a FlagParser walks; argv[0] is the program name.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {
    for (std::string& arg : args_) {
      argv_.push_back(arg.data());
    }
  }
  Args(const Args&) = delete;  // argv_ points into this object's strings.
  Args& operator=(const Args&) = delete;

  FlagParser Parser() { return FlagParser(static_cast<int>(argv_.size()), argv_.data()); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

TEST(FlagParserTest, SpaceAndEqualsFormsBothParse) {
  Args args({"tool", "--jobs", "-3", "--seed=42", "--load", "-2.5e-1", "--name=x", "--csv"});
  FlagParser flags = args.Parser();
  int jobs = 0;
  uint64_t seed = 0;
  double load = 0.0;
  std::string name;
  bool csv = false;
  while (flags.Next()) {
    if (flags.Int("--jobs", &jobs) || flags.U64("--seed", &seed) ||
        flags.Double("--load", &load) || flags.Str("--name", &name)) {
      continue;
    }
    ASSERT_TRUE(flags.Is("--csv")) << flags.arg();
    csv = true;
  }
  EXPECT_EQ(jobs, -3);
  EXPECT_EQ(seed, 42u);
  EXPECT_EQ(load, -0.25);
  EXPECT_EQ(name, "x");
  EXPECT_TRUE(csv);
}

TEST(FlagParserTest, MissingValueIsNotConsumed) {
  Args args({"tool", "--seed"});
  FlagParser flags = args.Parser();
  ASSERT_TRUE(flags.Next());
  uint64_t seed = 5;
  EXPECT_FALSE(flags.U64("--seed", &seed));
  EXPECT_EQ(seed, 5u);
  EXPECT_EQ(flags.arg(), "--seed");
  EXPECT_FALSE(flags.Next());
}

TEST(FlagParserTest, MalformedNumbersAreRejectedAndLeftInPlace) {
  // Empty, trailing characters, a leading space, and out of range for all
  // three types; "-1" only for the unsigned one.
  for (const std::string value : {"", "abc", "1.5x", "7 ", " 7", "1e999999"}) {
    for (const bool spaced : {false, true}) {
      SCOPED_TRACE("value '" + value + "'" + (spaced ? " spaced" : ""));
      Args args(spaced ? std::vector<std::string>{"tool", "--n", value}
                       : std::vector<std::string>{"tool", "--n=" + value});
      FlagParser flags = args.Parser();
      ASSERT_TRUE(flags.Next());
      int i = 1;
      uint64_t u = 2;
      double d = 3.0;
      EXPECT_FALSE(flags.Int("--n", &i));
      EXPECT_FALSE(flags.U64("--n", &u));
      EXPECT_FALSE(flags.Double("--n", &d));
      EXPECT_EQ(i, 1);
      EXPECT_EQ(u, 2u);
      EXPECT_EQ(d, 3.0);
      // The flag stays current, so the caller's diagnostic names it.
      EXPECT_EQ(flags.arg(), spaced ? "--n" : "--n=" + value);
    }
  }
  Args negative({"tool", "--seed=-1"});
  FlagParser flags = negative.Parser();
  ASSERT_TRUE(flags.Next());
  uint64_t seed = 9;
  EXPECT_FALSE(flags.U64("--seed", &seed));
  EXPECT_EQ(seed, 9u);
}

}  // namespace
}  // namespace rhythm
