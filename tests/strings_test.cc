#include "common/strings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

namespace qcap {
namespace {

TEST(StringsTest, JoinEmpty) { EXPECT_EQ(Join({}, ","), ""); }

TEST(StringsTest, JoinSingle) { EXPECT_EQ(Join({"a"}, ","), "a"); }

TEST(StringsTest, JoinMany) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, SplitEmptyStringYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), std::vector<std::string>{""});
}

TEST(StringsTest, SplitWithoutSeparatorYieldsWholeString) {
  EXPECT_EQ(Split("abc", ','), std::vector<std::string>{"abc"});
}

TEST(StringsTest, SplitPreservesEmptyFieldsBetweenRepeatedDelimiters) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",,", ','), (std::vector<std::string>{"", "", ""}));
}

TEST(StringsTest, SplitPreservesLeadingAndTrailingEmptyFields) {
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(StringsTest, SplitDoesNotTrimFieldWhitespace) {
  EXPECT_EQ(Split("a, b", ','), (std::vector<std::string>{"a", " b"}));
}

TEST(StringsTest, SplitOnlySplitsOnTheGivenSeparator) {
  EXPECT_EQ(Split("a:b,c", ':'), (std::vector<std::string>{"a", "b,c"}));
}

TEST(StringsTest, TrimEmpty) { EXPECT_EQ(Trim(""), ""); }

TEST(StringsTest, TrimAllWhitespaceYieldsEmpty) {
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(" \t\r\n\v\f "), "");
}

TEST(StringsTest, TrimNoWhitespaceIsIdentity) { EXPECT_EQ(Trim("abc"), "abc"); }

TEST(StringsTest, TrimStripsBothEndsOnly) {
  EXPECT_EQ(Trim("  a b\t"), "a b");
  EXPECT_EQ(Trim("\n x \n"), "x");
}

TEST(StringsTest, TrimSingleCharacter) {
  EXPECT_EQ(Trim(" a"), "a");
  EXPECT_EQ(Trim("a "), "a");
  EXPECT_EQ(Trim("a"), "a");
}

TEST(StringsTest, ParseUintTakesOnlyAWholeUnsignedDecimalToken) {
  const struct {
    const char* token;
    std::optional<uint64_t> want;
  } kCases[] = {
      {"0", 0},
      {"42", 42},
      {"007", 7},
      {"18446744073709551615", UINT64_MAX},
      {"18446744073709551616", std::nullopt},  // UINT64_MAX + 1
      {"", std::nullopt},
      {"+1", std::nullopt},
      {"-1", std::nullopt},
      {" 1", std::nullopt},
      {"1 ", std::nullopt},
      {"0x10", std::nullopt},
      {"12abc", std::nullopt},
      {"1.5", std::nullopt},
      {"1e3", std::nullopt},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(ParseUint(c.token), c.want) << "'" << c.token << "'";
  }
}

TEST(StringsTest, ParseFiniteDoubleTakesOnlyAWholeFiniteDecimalToken) {
  const struct {
    const char* token;
    std::optional<double> want;
  } kCases[] = {
      {"0", 0.0},
      {"-2.5", -2.5},
      {"0.004", 0.004},
      {"1e3", 1000.0},
      {"1E-3", 0.001},
      {"18446744073709551615", 18446744073709551615.0},
      {"18446744073709551616", 18446744073709551616.0},
      {"", std::nullopt},
      {"+1", std::nullopt},
      {" 1", std::nullopt},
      {"1 ", std::nullopt},
      {"0x10", std::nullopt},
      {"2abc", std::nullopt},
      {"1e400", std::nullopt},
      {"nan", std::nullopt},
      {"inf", std::nullopt},
      {"-inf", std::nullopt},
      {"infinity", std::nullopt},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(ParseFiniteDouble(c.token), c.want) << "'" << c.token << "'";
  }
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-1.5, 1), "-1.5");
}

TEST(StringsTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.254, 1), "25.4%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
  EXPECT_EQ(FormatPercent(0.0, 1), "0.0%");
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3.0 * 1024 * 1024), "3.0 MiB");
  EXPECT_EQ(FormatBytes(2.5 * 1024 * 1024 * 1024), "2.5 GiB");
}

TEST(StringsTest, PadLeft) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");
}

TEST(StringsTest, PadRight) {
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

TEST(StringsTest, JsonEscapeQuotesBackslashesAndControlChars) {
  const struct {
    std::string in;
    std::string want;
  } cases[] = {
      {"plain", "plain"},
      {"a\"b", "a\\\"b"},
      {"a\\b", "a\\\\b"},
      {"a\nb\tc", "a\\nb\\tc"},
      {"a\nb\tc\rd", "a\\nb\\tc\\rd"},
      {"a\bb\fc", "a\\bb\\fc"},
      {"a\x01" "b", "a\\u0001b"},
      {"a\x01" "z", "a\\u0001z"},
      {"\x1f", "\\u001f"},
      {std::string("\0", 1), "\\u0000"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(JsonEscape(c.in), c.want) << c.in;
  }
}

}  // namespace
}  // namespace qcap
