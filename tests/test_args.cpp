// Tests for the CLI flag parser, the flag rows its values are read by and
// the numeric parser under them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "io/args.hpp"
#include "util/strings.hpp"

namespace tfpe::io {
namespace {

using util::parse_int;
using util::parse_real;

/// A flag row of `kind` for --name.
Row row(const char* name, Kind kind, Domain domain = {},
        const char* fallback = nullptr) {
  Row r{name, kind, domain, fallback};
  r.flag = name;
  return r;
}

/// The rows the tests read by: value flags of each kind, and switches.
const std::vector<Row> kRows{
    row("gpus", Kind::kInt, at_least(1), "1024"), row("prompt", Kind::kInt),
    row("tokens", Kind::kReal), row("tp-overlap", Kind::kReal),
    row("ops", Kind::kBool), row("strict", Kind::kBool)};

ArgParser parse(std::initializer_list<const char*> argv,
                const std::vector<Row>& rows = kRows) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv);
  return ArgParser(rows, static_cast<int>(v.size()), v.data());
}

TEST(ArgParser, SpaceSeparatedValue) {
  const auto a = parse({"--model", "gpt3-1t"});
  EXPECT_EQ(a.get("model"), "gpt3-1t");
}

TEST(ArgParser, EqualsSeparatedValue) {
  const auto a = parse({"--gpus=4096"});
  EXPECT_EQ(a.get("gpus"), "4096");
}

TEST(ArgParser, BooleanFlag) {
  const auto a = parse({"--ops", "--model", "x"});
  EXPECT_TRUE(a.has("ops"));
  EXPECT_FALSE(a.has("sensitivity"));
  EXPECT_EQ(a.get("model"), "x");
}

TEST(ArgParser, BooleanFollowedByFlag) {
  const auto a = parse({"--interleave", "--zero3"});
  EXPECT_TRUE(a.has("interleave"));
  EXPECT_TRUE(a.has("zero3"));
}

TEST(ArgParser, DoubleParsing) {
  const auto a = parse({"--tokens", "1e12", "--tp-overlap=0.5"});
  EXPECT_DOUBLE_EQ(a.real("tokens"), 1e12);
  EXPECT_DOUBLE_EQ(a.real("tp-overlap"), 0.5);
}

TEST(ArgParser, DefaultsApply) {
  const auto a = parse({});
  EXPECT_EQ(a.given("gpus"), std::nullopt);
  EXPECT_EQ(a.integer("gpus"), 1024);
  EXPECT_EQ(a.get(std::string("missing")), std::nullopt);
}

TEST(ArgParser, RejectsMalformedNumbers) {
  const auto a = parse({"--gpus", "many"});
  EXPECT_THROW(a.integer("gpus"), std::invalid_argument);
  const auto b = parse({"--tokens", "1e12x"});
  EXPECT_THROW(b.real("tokens"), std::invalid_argument);
}

TEST(ArgParser, RejectsOverflowingNumbers) {
  // strtoll would saturate these to INT64_MAX/MIN; the flag must fail.
  const auto a = parse({"--prompt", "99999999999999999999", "--gpus",
                        "-99999999999999999999", "--tokens", "1e999"});
  EXPECT_THROW(a.integer("prompt"), std::invalid_argument);
  EXPECT_THROW(a.integer("gpus"), std::invalid_argument);
  EXPECT_THROW(a.real("tokens"), std::invalid_argument);
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
    EXPECT_THROW(a.get("csv"), std::invalid_argument);
    EXPECT_TRUE(a.has("csv"));
  }
  const auto b = parse({"--gpus"});
  EXPECT_THROW(b.integer("gpus"), std::invalid_argument);
  const auto c = parse({"--tp-overlap"});
  EXPECT_THROW(c.real("tp-overlap"), std::invalid_argument);
}

TEST(ArgParser, SwitchNeverTakesAnOperand) {
  const auto a = parse({"--strict", "plan.tfpe", "--batch", "8"});
  EXPECT_TRUE(a.has("strict"));
  EXPECT_EQ(a.positional(), std::vector<std::string>{"plan.tfpe"});
  EXPECT_EQ(a.get("batch"), "8");
  // Without the declaration, "--flag value" reads the operand as its value.
  EXPECT_TRUE(parse({"--strict", "plan.tfpe"}, {}).positional().empty());
  EXPECT_THROW(parse({"--strict=yes"}), std::invalid_argument);
}

TEST(ArgParser, UnusedDetectsTypos) {
  const auto a = parse({"--model", "x", "--tpyo", "y"});
  (void)a.get("model");
  const auto stray = a.unused();
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0], "tpyo");
}

}  // namespace
}  // namespace tfpe::io
