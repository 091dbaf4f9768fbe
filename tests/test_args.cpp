#include "src/support/args.hpp"

#include <gtest/gtest.h>

namespace beepmis::support {
namespace {

ArgParser make_parser() {
  ArgParser p("test tool");
  p.add_option("name", "default", "a string");
  p.add_option("count", "3", "an int");
  p.add_option("rate", "0.5", "a double");
  p.add_flag("verbose", "a flag");
  return p;
}

bool parse(ArgParser& p, std::initializer_list<const char*> argv,
           std::string* err) {
  std::vector<const char*> full = {"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return p.parse(static_cast<int>(full.size()), full.data(), err);
}

TEST(ArgParser, DefaultsApply) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {}, &err)) << err;
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_FALSE(p.flag("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--name", "hello", "--count", "42"}, &err)) << err;
  EXPECT_EQ(p.get("name"), "hello");
  EXPECT_EQ(p.get_int("count"), 42);
}

TEST(ArgParser, EqualsSeparatedValues) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--name=world", "--rate=0.25", "--verbose"}, &err));
  EXPECT_EQ(p.get("name"), "world");
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.25);
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgParser, NegativeNumbers) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--count", "-5"}, &err));
  EXPECT_EQ(p.get_int("count"), -5);
}

TEST(ArgParser, UnknownArgumentRejected) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"--nope"}, &err));
  EXPECT_NE(err.find("unknown"), std::string::npos);
}

TEST(ArgParser, PositionalRejected) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"stray"}, &err));
  EXPECT_NE(err.find("positional"), std::string::npos);
}

TEST(ArgParser, MissingValueRejected) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"--name"}, &err));
  EXPECT_NE(err.find("needs a value"), std::string::npos);
}

TEST(ArgParser, FlagWithValueRejected) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"--verbose=yes"}, &err));
  EXPECT_NE(err.find("does not take"), std::string::npos);
}

TEST(ArgParser, HelpReturnsUsage) {
  ArgParser p = make_parser();
  std::string err;
  EXPECT_FALSE(parse(p, {"--help"}, &err));
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_NE(err.find("--name"), std::string::npos);
  EXPECT_NE(err.find("--verbose"), std::string::npos);
}

// A numeric option given text is a usage error, not an abort: one line
// naming the option on stderr and exit code 2, like every other bad value.
TEST(ArgParserDeath, BadNumericValueIsAUsageError) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--count", "abc", "--rate", "fast"}, &err));
  EXPECT_EXIT(p.get_int("count"), testing::ExitedWithCode(2),
              "^--count expects an integer, got 'abc'\n$");
  EXPECT_EXIT(p.get_double("rate"), testing::ExitedWithCode(2),
              "^--rate expects a number, got 'fast'\n$");
  EXPECT_EXIT(p.get_count("rate"), testing::ExitedWithCode(2),
              "--rate expects an integer");
}

TEST(ArgParserDeath, OutOfRangeIntegerIsAUsageError) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--count", "99999999999999999999"}, &err));
  EXPECT_EXIT(p.get_int("count"), testing::ExitedWithCode(2),
              "--count expects an integer");
}

TEST(ArgParserDeath, NegativeCountIsAUsageError) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {"--count", "0"}, &err));
  EXPECT_EQ(p.get_count("count"), 0u);
  ArgParser q = make_parser();
  ASSERT_TRUE(parse(q, {"--count", "-1"}, &err));
  EXPECT_EQ(q.get_int("count"), -1);
  EXPECT_EXIT(q.get_count("count"), testing::ExitedWithCode(2),
              "^--count expects a non-negative integer, got '-1'\n$");
}

TEST(ArgParserDeath, UndeclaredQueryAborts) {
  ArgParser p = make_parser();
  std::string err;
  ASSERT_TRUE(parse(p, {}, &err));
  EXPECT_DEATH(p.get("missing"), "undeclared");
  EXPECT_DEATH(p.flag("missing"), "undeclared");
}

TEST(ArgParserDeath, DuplicateDeclarationAborts) {
  ArgParser p("x");
  p.add_flag("a", "h");
  EXPECT_DEATH(p.add_option("a", "v", "h"), "duplicate");
}

}  // namespace
}  // namespace beepmis::support
