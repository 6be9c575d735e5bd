#include "src/common/string_util.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace pdsp {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(SplitTest, EmptyStringYieldsOneEmptyField) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitWhitespaceTest, DropsEmptyTokens) {
  std::vector<std::string_view> parts;
  SplitWhitespace("  hello\t world \n", &parts);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[1], "world");
}

TEST(SplitWhitespaceTest, EmptyInput) {
  std::vector<std::string_view> parts;
  SplitWhitespace("   ", &parts);
  EXPECT_TRUE(parts.empty());
}

// The tokens are views into the input, and a reused vector holds only the
// latest split: shorter, empty or longer than the one before.
TEST(SplitWhitespaceTest, ReusesTheScratchVector) {
  const std::string text = "alpha beta gamma delta";
  std::vector<std::string_view> parts;
  SplitWhitespace(text, &parts);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[3], "delta");
  EXPECT_EQ(parts[0].data(), text.data());
  EXPECT_EQ(parts[2].data(), text.data() + 11);
  const size_t capacity = parts.capacity();
  SplitWhitespace(" x  y ", &parts);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "x");
  EXPECT_EQ(parts[1], "y");
  EXPECT_EQ(parts.capacity(), capacity);
  SplitWhitespace("", &parts);
  EXPECT_TRUE(parts.empty());
  SplitWhitespace("a b c d e f", &parts);
  ASSERT_EQ(parts.size(), 6u);
  EXPECT_EQ(parts[5], "f");
  // Every ASCII whitespace character separates; other bytes do not.
  SplitWhitespace("a\vb\fc\rd\xa0" "e", &parts);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[3], "d\xa0" "e");
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(ToLowerTest, MixedCase) {
  EXPECT_EQ(ToLower("Hello WORLD 123"), "hello world 123");
}

TEST(TrimTest, StripsEnds) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

TEST(HumanCountTest, ScalesUnits) {
  EXPECT_EQ(HumanCount(500), "500");
  EXPECT_EQ(HumanCount(1500), "1.5k");
  EXPECT_EQ(HumanCount(2000000), "2m");
}

}  // namespace
}  // namespace pdsp
