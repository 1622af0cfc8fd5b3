#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string_view>
#include <vector>

namespace vdap::json {
namespace {

TEST(JsonValue, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.dump(), "null");
}

TEST(JsonValue, Scalars) {
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(42).dump(), "42");
  EXPECT_EQ(Value(-7).dump(), "-7");
  EXPECT_EQ(Value(2.5).dump(), "2.5");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
}

TEST(JsonValue, IntDoubleInterop) {
  Value i(3);
  Value d(3.5);
  EXPECT_DOUBLE_EQ(i.as_double(), 3.0);
  EXPECT_EQ(d.as_int(), 3);
  EXPECT_TRUE(i.is_number());
  EXPECT_TRUE(d.is_number());
}

TEST(JsonValue, ObjectInsertAndLookup) {
  Value v;
  v["a"] = 1;
  v["b"]["nested"] = "x";
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_EQ(v.at("b").at("nested").as_string(), "x");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zz"));
  EXPECT_EQ(v.find("zz"), nullptr);
  EXPECT_THROW(v.at("zz"), std::out_of_range);
}

TEST(JsonValue, TypedGettersWithDefaults) {
  Value v;
  v["i"] = 5;
  v["d"] = 1.5;
  v["s"] = "str";
  v["b"] = true;
  EXPECT_EQ(v.get_int("i"), 5);
  EXPECT_EQ(v.get_int("missing", -1), -1);
  EXPECT_DOUBLE_EQ(v.get_double("d"), 1.5);
  EXPECT_DOUBLE_EQ(v.get_double("i"), 5.0);  // int promotes
  EXPECT_EQ(v.get_string("s"), "str");
  EXPECT_EQ(v.get_string("i", "def"), "def");  // wrong type -> default
  EXPECT_TRUE(v.get_bool("b"));
}

TEST(JsonValue, ArrayAccess) {
  Value v(Array{1, "two", 3.0});
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(std::size_t{0}).as_int(), 1);
  EXPECT_EQ(v.at(std::size_t{1}).as_string(), "two");
  EXPECT_THROW(v.at(std::size_t{3}), std::out_of_range);
}

TEST(JsonValue, WrongTypeAccessThrows) {
  Value v(42);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_array(), std::runtime_error);
  EXPECT_THROW(Value("x").as_int(), std::runtime_error);
}

TEST(JsonParse, Document) {
  Value v = parse(R"({"name":"vdap","version":1,"pi":3.25,
                      "tags":["edge","cav"],"nested":{"ok":true},
                      "none":null})");
  EXPECT_EQ(v.at("name").as_string(), "vdap");
  EXPECT_EQ(v.at("version").as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("pi").as_double(), 3.25);
  EXPECT_EQ(v.at("tags").size(), 2u);
  EXPECT_TRUE(v.at("nested").at("ok").as_bool());
  EXPECT_TRUE(v.at("none").is_null());
}

TEST(JsonParse, RoundTripCompact) {
  const char* docs[] = {
      "null",
      "true",
      "-12",
      "1.5",
      "\"a\\nb\"",
      "[]",
      "{}",
      "[1,2,[3,{\"k\":\"v\"}]]",
      "{\"a\":{\"b\":[false,null,0.5]}}",
  };
  for (const char* d : docs) {
    Value v = parse(d);
    EXPECT_EQ(v, parse(v.dump())) << d;
  }
}

TEST(JsonParse, PrettyRoundTrips) {
  Value v = parse(R"({"a":[1,2],"b":{"c":"d"}})");
  EXPECT_EQ(parse(v.pretty()), v);
  EXPECT_NE(v.pretty().find('\n'), std::string::npos);
}

TEST(JsonParse, StringEscapes) {
  Value v = parse(R"("line\n\ttab \"quote\" back\\slash Aé")");
  EXPECT_EQ(v.as_string(), "line\n\ttab \"quote\" back\\slash A\xC3\xA9");
  // Escaped control characters round-trip.
  Value s(std::string("\x01 control"));
  EXPECT_EQ(parse(s.dump()), s);
}

TEST(JsonParse, Numbers) {
  EXPECT_EQ(parse("0").as_int(), 0);
  EXPECT_EQ(parse("-0").as_int(), 0);
  EXPECT_EQ(parse("9223372036854775807").as_int(), INT64_MAX);
  EXPECT_TRUE(parse("1e3").is_double());
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5E-1").as_double(), -0.25);
}

TEST(JsonParse, ErrorsThrow) {
  const char* bad[] = {
      "",      "{",          "[1,",     "{\"a\":}", "tru",
      "nul",   "\"unterm",   "1 2",     "{'a':1}",  "[1,]",
      "{\"a\":1,}",
  };
  for (const char* d : bad) {
    EXPECT_THROW(parse(d), std::runtime_error) << d;
    EXPECT_FALSE(try_parse(d).has_value()) << d;
  }
}

TEST(JsonParse, TryParseOk) {
  auto v = try_parse("[1,2,3]");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->size(), 3u);
}

TEST(JsonParse, WhitespaceTolerant) {
  Value v = parse("  \n\t { \"a\" : [ 1 , 2 ] } \r\n ");
  EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(JsonParse, DeterministicObjectOrder) {
  // Keys serialize sorted, so semantically equal docs dump identically.
  Value a = parse(R"({"z":1,"a":2})");
  Value b = parse(R"({"a":2,"z":1})");
  EXPECT_EQ(a.dump(), b.dump());
}

TEST(JsonParse, DoubleRoundTripPrecision) {
  double values[] = {0.1, 1.0 / 3.0, 1e-9, 123456789.123456789, -2.5e300};
  for (double d : values) {
    Value v(d);
    EXPECT_DOUBLE_EQ(parse(v.dump()).as_double(), d) << d;
  }
}

// --- number formatting --------------------------------------------------

// The formatter append_double replaced, kept as the reference: the
// smallest P in 1..16 whose %.Pg text strtod reads back, else %.17g.
std::string trial_loop_format(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, d);
    if (std::strtod(probe, nullptr) == d) return probe;
  }
  return buf;
}

/// Counts values whose dump() differs from the reference; reports the
/// first few.
int format_mismatches(const std::vector<double>& values) {
  int bad = 0;
  for (double d : values) {
    const std::string got = Value(d).dump();
    const std::string want = trial_loop_format(d);
    if (got != want && ++bad <= 5) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(d)
                    << ": dump() = " << got << ", trial loop = " << want;
    }
  }
  return bad;
}

/// x, and x's neighbours toward -inf and +inf.
void push_with_neighbours(std::vector<double>& out, double x) {
  out.push_back(x);
  out.push_back(std::nextafter(x, -std::numeric_limits<double>::infinity()));
  out.push_back(std::nextafter(x, std::numeric_limits<double>::infinity()));
}

class JsonFormatRandomBits : public ::testing::TestWithParam<int> {};

// 4 x 262144 = 1,048,576 uniformly random bit patterns: every exponent,
// subnormals, NaN payloads and infinities included.
TEST_P(JsonFormatRandomBits, MatchesTrialLoop) {
  std::mt19937_64 rng(0x5eed0000u + static_cast<unsigned>(GetParam()));
  std::vector<double> values(262144);
  for (double& d : values) d = std::bit_cast<double>(rng());
  EXPECT_EQ(format_mismatches(values), 0);
}

INSTANTIATE_TEST_SUITE_P(Quarters, JsonFormatRandomBits,
                         ::testing::Values(0, 1, 2, 3));

TEST(JsonFormat, MatchesTrialLoopOnPowersOfTwo) {
  // 2^e for every e a double can hold, subnormal powers included, both
  // signs, each with both neighbours. The rounding interval of an exact
  // power of two is asymmetric, which is where a shortest-digits
  // formatter and %.Pg part ways.
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {
    push_with_neighbours(values, std::ldexp(1.0, e));
    push_with_neighbours(values, -std::ldexp(1.0, e));
  }
  EXPECT_EQ(format_mismatches(values), 0);
}

TEST(JsonFormat, MatchesTrialLoopOnSubnormals) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> values;
  for (int k = 1; k <= 4096; ++k) {
    values.push_back(k * tiny);
    values.push_back(-k * tiny);
  }
  push_with_neighbours(values, DBL_MIN);  // the smallest normal
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Exponent bits zero, random mantissa and sign.
    values.push_back(std::bit_cast<double>(rng() & 0x800fffffffffffffULL));
  }
  EXPECT_EQ(format_mismatches(values), 0);
}

TEST(JsonFormat, MatchesTrialLoopOnIntegers) {
  std::vector<double> values;
  for (int i = -100000; i <= 100000; ++i) values.push_back(i);
  EXPECT_EQ(format_mismatches(values), 0);
}

TEST(JsonFormat, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      0.0,     -0.0,     1e300,   -1e300,   1e-300,  -1e-300,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, 0.1,     1.0 / 3.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::quiet_NaN(), inf, -inf};
  EXPECT_EQ(format_mismatches(values), 0);
  EXPECT_EQ(Value(0.0).dump(), "0");
  EXPECT_EQ(Value(-0.0).dump(), "-0");
  EXPECT_EQ(Value(DBL_MAX).dump(), "1.7976931348623157e+308");
  EXPECT_EQ(Value(std::numeric_limits<double>::denorm_min()).dump(), "5e-324");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Value(inf).dump(), "null");
  EXPECT_EQ(Value(-inf).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");
}

TEST(JsonFormat, PowersOfTwoWhereShortestDigitsDoNotRoundTrip) {
  // At these powers of two the correctly rounded text at the shortest
  // round-trip digit count lies outside the (asymmetric) rounding
  // interval, so one more digit is needed. A formatter that stops at the
  // shortest digit count prints 2^-1017 as 7.120236347223044e-307, which
  // parses back to a different double.
  struct Case {
    int exp;
    const char* text;
  };
  const Case cases[] = {{-1017, "7.1202363472230444e-307"},
                        {-1007, "7.2911220195563975e-304"},
                        {-957, "8.2090736025967525e-289"}};
  for (const Case& c : cases) {
    const double d = std::ldexp(1.0, c.exp);
    EXPECT_EQ(Value(d).dump(), c.text) << "2^" << c.exp;
    EXPECT_EQ(trial_loop_format(d), c.text) << "2^" << c.exp;
    // The shortest round-trip form has 16 digits, yet %.16g misses.
    char shortest[32];
    char* end = std::to_chars(shortest, shortest + sizeof(shortest), d,
                              std::chars_format::scientific).ptr;
    EXPECT_EQ(std::string_view(shortest, end).find('e'), 17u) << "2^" << c.exp;
    char sixteen[32];
    std::snprintf(sixteen, sizeof(sixteen), "%.16g", d);
    EXPECT_NE(std::strtod(sixteen, nullptr), d) << "2^" << c.exp;
  }
}

}  // namespace
}  // namespace vdap::json
