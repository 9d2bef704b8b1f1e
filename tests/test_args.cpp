// Tests for the CLI flag parser and the numeric parser it reads through.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/args.hpp"
#include "util/strings.hpp"

namespace tfpe::util {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(ArgParser, SpaceSeparatedValue) {
  const auto a = parse({"--model", "gpt3-1t"});
  EXPECT_EQ(a.get_or("model", ""), "gpt3-1t");
}

TEST(ArgParser, EqualsSeparatedValue) {
  const auto a = parse({"--gpus=4096"});
  EXPECT_EQ(a.get_int_or("gpus", 0), 4096);
}

TEST(ArgParser, BooleanFlag) {
  const auto a = parse({"--ops", "--model", "x"});
  EXPECT_TRUE(a.has("ops"));
  EXPECT_FALSE(a.has("sensitivity"));
  EXPECT_EQ(a.get_or("model", ""), "x");
}

TEST(ArgParser, BooleanFollowedByFlag) {
  const auto a = parse({"--interleave", "--zero3"});
  EXPECT_TRUE(a.has("interleave"));
  EXPECT_TRUE(a.has("zero3"));
}

TEST(ArgParser, DoubleParsing) {
  const auto a = parse({"--tokens", "1e12", "--tp-overlap=0.5"});
  EXPECT_DOUBLE_EQ(a.get_double_or("tokens", 0), 1e12);
  EXPECT_DOUBLE_EQ(a.get_double_or("tp-overlap", 0), 0.5);
}

TEST(ArgParser, DefaultsApply) {
  const auto a = parse({});
  EXPECT_EQ(a.get_int_or("gpus", 1024), 1024);
  EXPECT_EQ(a.get(std::string("missing")), std::nullopt);
}

TEST(ArgParser, RejectsMalformedNumbers) {
  const auto a = parse({"--gpus", "many"});
  EXPECT_THROW(a.get_int_or("gpus", 0), std::invalid_argument);
  const auto b = parse({"--tokens", "1e12x"});
  EXPECT_THROW(b.get_double_or("tokens", 0), std::invalid_argument);
}

TEST(ArgParser, RejectsOverflowingNumbers) {
  // strtoll would saturate these to INT64_MAX/MIN; the flag must fail.
  const auto a = parse({"--prompt", "99999999999999999999", "--gpus",
                        "-99999999999999999999", "--tokens", "1e999"});
  EXPECT_THROW(a.get_int_or("prompt", 0), std::invalid_argument);
  EXPECT_THROW(a.get_int_or("gpus", 0), std::invalid_argument);
  EXPECT_THROW(a.get_double_or("tokens", 0), std::invalid_argument);
}

TEST(ParseNumber, ReadsTheWholeStringOnly) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_int("9223372036854775808"), std::nullopt);
  EXPECT_EQ(parse_int(""), std::nullopt);
  EXPECT_EQ(parse_int("4 "), std::nullopt);
  EXPECT_EQ(parse_int("1e3"), std::nullopt);
  EXPECT_EQ(parse_int("2.0"), std::nullopt);
  EXPECT_EQ(parse_real("1e3"), 1000.0);
  EXPECT_EQ(parse_real("0.25"), 0.25);
  EXPECT_EQ(parse_real(""), std::nullopt);
  EXPECT_EQ(parse_real("0.5x"), std::nullopt);
  EXPECT_EQ(parse_real("1e999"), std::nullopt);
  EXPECT_TRUE(std::isnan(*parse_real("nan")));
  EXPECT_TRUE(std::isinf(*parse_real("inf")));
}

TEST(ArgParser, PositionalArguments) {
  const auto a = parse({"file1", "--flag", "v", "file2"});
  EXPECT_EQ(a.positional(), (std::vector<std::string>{"file1", "file2"}));
}

TEST(ArgParser, BareValueFlagThrows) {
  // Given last, before another flag, or as --flag=, a value flag has no
  // value; reading it must fail rather than read "" as "not given".
  for (const auto& a : {parse({"--gpus", "64", "--csv"}),
                        parse({"--csv", "--ops"}), parse({"--csv="})}) {
    EXPECT_THROW(a.get_or("csv", ""), std::invalid_argument);
    EXPECT_THROW(a.get("csv"), std::invalid_argument);
    EXPECT_TRUE(a.has("csv"));
  }
  const auto b = parse({"--gpus"});
  EXPECT_THROW(b.get_int_or("gpus", 1), std::invalid_argument);
  const auto c = parse({"--tp-overlap"});
  EXPECT_THROW(c.get_double_or("tp-overlap", 0), std::invalid_argument);
}

TEST(ArgParser, UnusedDetectsTypos) {
  const auto a = parse({"--model", "x", "--tpyo", "y"});
  (void)a.get("model");
  const auto stray = a.unused();
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0], "tpyo");
}

}  // namespace
}  // namespace tfpe::util
