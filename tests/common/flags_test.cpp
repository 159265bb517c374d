#include "common/flags.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

namespace bohr {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  const Flags f = make({"--name=value", "--n=42"});
  EXPECT_EQ(f.get("name", ""), "value");
  EXPECT_EQ(f.get_int("n", 0), 42);
}

TEST(FlagsTest, SpaceForm) {
  const Flags f = make({"--name", "value", "--rate", "2.5"});
  EXPECT_EQ(f.get("name", ""), "value");
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 2.5);
}

TEST(FlagsTest, BooleanSwitch) {
  const Flags f = make({"--verbose", "--csv=false"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("csv", true));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags f = make({});
  EXPECT_EQ(f.get("missing", "fallback"), "fallback");
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_FALSE(f.has("missing"));
}

TEST(FlagsTest, SwitchFollowedByFlag) {
  // --a is a switch because the next token is another flag.
  const Flags f = make({"--a", "--b=1"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_EQ(f.get_int("b", 0), 1);
}

TEST(FlagsTest, UnusedDetectsTypos) {
  const Flags f = make({"--used=1", "--typo=2"});
  EXPECT_EQ(f.get_int("used", 0), 1);
  const auto unused = f.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagsTest, MalformedInputsThrow) {
  EXPECT_THROW(make({"notaflag"}), FlagError);
  EXPECT_THROW(make({"--"}), FlagError);
  const Flags f = make({"--n=abc"});
  EXPECT_THROW(f.get_int("n", 0), FlagError);
  const Flags g = make({"--b=maybe"});
  EXPECT_THROW(g.get_bool("b", false), FlagError);
}

/// The message of the FlagError that parsing `args` and then `read`
/// throws, or "" when both parse.
std::string flag_error(std::initializer_list<const char*> args,
                       const std::function<void(const Flags&)>& read) {
  try {
    read(make(args));
  } catch (const FlagError& e) {
    return e.what();
  }
  return "";
}

TEST(FlagsTest, EveryMalformedArgumentOrValueNamesItself) {
  const auto as_int = [](const Flags& f) { f.get_int("datasets", 0); };
  const auto as_double = [](const Flags& f) { f.get_double("lag", 0.0); };
  const auto as_bool = [](const Flags& f) { f.get_bool("csv", false); };
  const auto nothing = [](const Flags&) {};
  EXPECT_EQ(flag_error({"--lag=abc"}, as_double),
            "malformed flag --lag=abc: not a number in range");
  EXPECT_EQ(flag_error({"--lag=1e999"}, as_double),
            "malformed flag --lag=1e999: not a number in range");
  EXPECT_EQ(flag_error({"--lag=inf"}, as_double),
            "malformed flag --lag=inf: not a number in range");
  EXPECT_EQ(flag_error({"--lag=-inf"}, as_double),
            "malformed flag --lag=-inf: not a number in range");
  EXPECT_EQ(flag_error({"--lag=nan"}, as_double),
            "malformed flag --lag=nan: not a number in range");
  EXPECT_EQ(flag_error({"--lag=2s"}, as_double),
            "malformed flag --lag=2s: trailing characters");
  EXPECT_EQ(flag_error({"--datasets=abc"}, as_int),
            "malformed flag --datasets=abc: not an integer in range");
  EXPECT_EQ(flag_error({"--datasets=99999999999999999999"}, as_int),
            "malformed flag --datasets=99999999999999999999: not an "
            "integer in range");
  EXPECT_EQ(flag_error({"--csv=maybe"}, as_bool),
            "malformed flag --csv=maybe: not a boolean");
  EXPECT_EQ(flag_error({"foo"}, nothing),
            "malformed argument 'foo': expected --name");
  EXPECT_EQ(flag_error({"--=1"}, nothing),
            "malformed argument '--=1': empty flag name");
  // Well-formed values still parse.
  EXPECT_EQ(flag_error({"--lag=2.5", "--datasets=-3", "--csv=yes"},
                       [&](const Flags& f) {
                         as_double(f);
                         as_int(f);
                         as_bool(f);
                       }),
            "");
}

TEST(FlagsTest, ProgramNameCaptured) {
  const Flags f = make({});
  EXPECT_EQ(f.program(), "prog");
}

}  // namespace
}  // namespace bohr
