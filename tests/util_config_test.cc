#include "util/config.h"

#include <gtest/gtest.h>

namespace scholar {
namespace {

TEST(ConfigTest, FromArgsParsesDashedAndPlain) {
  const char* argv[] = {"--sigma=0.4", "-k=8", "ranker=twpr"};
  Config c = Config::FromArgs(3, argv).value();
  EXPECT_DOUBLE_EQ(c.GetDouble("sigma").value(), 0.4);
  EXPECT_EQ(c.GetInt("k").value(), 8);
  EXPECT_EQ(c.GetString("ranker").value(), "twpr");
}

TEST(ConfigTest, FromArgsRejectsMissingEquals) {
  const char* argv[] = {"--verbose"};
  EXPECT_TRUE(Config::FromArgs(1, argv).status().IsInvalidArgument());
}

TEST(ConfigTest, FromArgsRejectsEmptyKey) {
  const char* argv[] = {"--=5"};
  EXPECT_TRUE(Config::FromArgs(1, argv).status().IsInvalidArgument());
}

TEST(ConfigTest, FromStringParsesFileSyntax) {
  Config c = Config::FromString(
                 "# experiment\n"
                 "sigma = 0.5\n"
                 "\n"
                 "slices = 8   # inline comment\n")
                 .value();
  EXPECT_DOUBLE_EQ(c.GetDouble("sigma").value(), 0.5);
  EXPECT_EQ(c.GetInt("slices").value(), 8);
  EXPECT_FALSE(c.Has("# experiment"));
}

TEST(ConfigTest, FromStringRejectsNonAssignments) {
  EXPECT_TRUE(Config::FromString("just words\n").status().IsInvalidArgument());
}

TEST(ConfigTest, TypedSettersAndGetters) {
  Config c;
  c.SetInt("n", 100);
  c.SetDouble("d", 0.85);
  c.SetBool("flag", true);
  c.Set("s", "hello");
  EXPECT_EQ(c.GetInt("n").value(), 100);
  EXPECT_DOUBLE_EQ(c.GetDouble("d").value(), 0.85);
  EXPECT_TRUE(c.GetBool("flag").value());
  EXPECT_EQ(c.GetString("s").value(), "hello");
}

TEST(ConfigTest, SetDoubleRoundTrips) {
  Config c;
  for (double v : {1e-14, 0.1, 1e300}) {
    c.SetDouble("d", v);
    EXPECT_EQ(c.GetDouble("d").value(), v) << c.GetString("d").value();
  }
}

TEST(ConfigTest, MissingKeysAreNotFound) {
  Config c;
  EXPECT_TRUE(c.GetString("nope").status().IsNotFound());
  EXPECT_TRUE(c.GetInt("nope").status().IsNotFound());
  EXPECT_FALSE(c.Has("nope"));
}

TEST(ConfigTest, MalformedValuesAreInvalidArgument) {
  Config c;
  c.Set("n", "abc");
  EXPECT_TRUE(c.GetInt("n").status().IsInvalidArgument());
  c.Set("b", "maybe");
  EXPECT_TRUE(c.GetBool("b").status().IsInvalidArgument());
}

TEST(ConfigTest, BoolAcceptsCommonSpellings) {
  Config c;
  for (const char* t : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
    c.Set("b", t);
    EXPECT_TRUE(c.GetBool("b").value()) << t;
  }
  for (const char* f : {"false", "0", "no", "off", "False"}) {
    c.Set("b", f);
    EXPECT_FALSE(c.GetBool("b").value()) << f;
  }
}

TEST(ConfigTest, OrFallbacks) {
  Config c;
  c.SetInt("present", 5);
  EXPECT_EQ(c.GetIntOr("present", 9), 5);
  EXPECT_EQ(c.GetIntOr("absent", 9), 9);
  EXPECT_DOUBLE_EQ(c.GetDoubleOr("absent", 1.5), 1.5);
  EXPECT_EQ(c.GetStringOr("absent", "x"), "x");
  EXPECT_TRUE(c.GetBoolOr("absent", true));
}

TEST(ConfigTest, OverwriteReplacesValue) {
  Config c;
  c.SetInt("k", 1);
  c.SetInt("k", 2);
  EXPECT_EQ(c.GetInt("k").value(), 2);
}

TEST(ConfigTest, KeysAreSortedAndToStringRoundTrips) {
  Config c;
  c.Set("zeta", "1");
  c.Set("alpha", "2");
  auto keys = c.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "zeta");

  Config back = Config::FromString(c.ToString()).value();
  EXPECT_EQ(back.GetString("zeta").value(), "1");
  EXPECT_EQ(back.GetString("alpha").value(), "2");
}

}  // namespace
}  // namespace scholar
