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
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/strings.hpp"

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

TEST(JsonValue, AsIntIsDefinedOutsideInt64) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Value(1e300).as_int(), kMin);
  EXPECT_EQ(Value(-1e300).as_int(), kMin);
  EXPECT_EQ(Value(inf).as_int(), kMin);
  EXPECT_EQ(Value(-inf).as_int(), kMin);
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).as_int(), kMin);
  EXPECT_EQ(Value(9223372036854775808.0).as_int(), kMin);  // 2^63
  // The edges of the range still truncate.
  EXPECT_EQ(Value(-9223372036854775808.0).as_int(), kMin);
  EXPECT_EQ(Value(9223372036854774784.0).as_int(), 9223372036854774784);
  EXPECT_EQ(Value(2.7).as_int(), 2);
  EXPECT_EQ(Value(-2.7).as_int(), -2);
  EXPECT_EQ(parse("1e999").as_int(), kMin);
  EXPECT_EQ(parse(R"({"at":-1e300})").get_int("at"), kMin);
}

TEST(JsonValue, UnsignedAboveInt64IsTheNearestDouble) {
  EXPECT_EQ(Value(std::uint64_t{9223372036854775807u}).dump(),
            "9223372036854775807");
  EXPECT_EQ(Value(std::uint64_t{1} << 63).dump(), "9.223372036854776e+18");
  EXPECT_EQ(Value(std::numeric_limits<std::size_t>::max()).dump(),
            "1.8446744073709552e+19");
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

// --- number tokens ------------------------------------------------------

// The number rule the parser has always had, written out as the
// reference: the token is an optional '-' and the longest run of
// [0-9.eE+-]; empty or a lone '-' is malformed. With none of ".eE+-" after
// the sign, from_chars<int64_t> over the whole token gives an int; else,
// or on overflow, strtod over a copy of the token gives a double.
std::optional<Value> old_number_rule(std::string_view tok) {
  if (tok.empty() || tok == "-") return std::nullopt;
  if (tok.find_first_of(".eE+-", tok[0] == '-' ? 1 : 0) == tok.npos) {
    std::int64_t i = 0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
    if (ec == std::errc() && p == tok.data() + tok.size()) return Value(i);
  }
  return Value(std::strtod(std::string(tok).c_str(), nullptr));
}

/// Counts tokens that parse() reads differently from the reference (type,
/// int value, or double bit pattern); reports the first few.
int number_mismatches(const std::vector<std::string>& tokens) {
  int bad = 0;
  for (const std::string& tok : tokens) {
    const std::optional<Value> want = old_number_rule(tok);
    const std::optional<Value> got = try_parse(tok);
    bool same = want.has_value() == got.has_value();
    if (same && want.has_value()) {
      same = want->type() == got->type() &&
             (want->is_int() ? want->as_int() == got->as_int()
                             : std::bit_cast<std::uint64_t>(want->as_double()) ==
                                   std::bit_cast<std::uint64_t>(got->as_double()));
    }
    if (!same && ++bad <= 5) {
      ADD_FAILURE() << "token \"" << tok << "\": parse() = "
                    << (got ? got->dump() : "error") << ", old rule = "
                    << (want ? want->dump() : "error");
    }
  }
  return bad;
}

TEST(JsonNumber, MatchesOldRuleOnHostileTokens) {
  const std::vector<std::string> tokens = {
      "", "-", "0", "-0", "00012", "-00", "e", "E", "-e", ".", "-.", "+",
      "+5", "-+5", "--5", "1-2", "1+2", "1e", "1e+", "1e-", "1E5", "1e5e3",
      "1.2.3", ".5", "5.", "-.5", "-5.", ".e1", "0e0", "-0e0", "-0.0",
      "0.0", "1.5", "2.7", "1e2", "1e300", "-1e300", "1e308", "1e309",
      "1e999", "-1e999", "1e-400", "-1e-400", "1e-320", "4.9e-324",
      "2.4703282292062327e-324", "2.4703282292062328e-324",
      "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "9223372036854775807",
      "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
      "18446744073709551616", "123456789012345678901234567890",
      "0.1000000000000000055511151231257827", "9007199254740993",
      "9007199254740993.0", "1e00000000000000000000001", "1e-00000000000000001",
      "0000000000000000000000000000001e-2", "1e+0", "+.", "+e", "e5", "-e5"};
  EXPECT_EQ(number_mismatches(tokens), 0);
}

TEST(JsonNumber, MatchesOldRuleOnRandomTokens) {
  std::mt19937_64 rng(0x70ce5u);
  auto below = [&](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };
  std::vector<std::string> tokens;
  // Any string of the token's characters.
  for (int i = 0; i < 100000; ++i) {
    std::string tok = below(3) == 0 ? "-" : "";
    for (int n = below(12); n > 0; --n) tok += "0123456789.eE+-"[below(15)];
    tokens.push_back(tok);
  }
  // Doubles of every exponent as %g, %e and %f text at random precision.
  char buf[512];
  for (int i = 0; i < 60000; ++i) {
    double d = std::bit_cast<double>(rng());
    if (!std::isfinite(d)) d = 1.0 / 3.0;
    const int prec = below(26);
    const char* fmt = below(3) == 0 ? "%.*e" : below(2) == 0 ? "%.*g" : "%.*f";
    std::snprintf(buf, sizeof(buf), fmt, prec, d);
    tokens.emplace_back(buf);
  }
  // Decimal text within a few digits of the midpoint between two adjacent
  // doubles, where only correct rounding gets the last bit right.
  for (int i = 0; i < 40000; ++i) {
    double d = std::bit_cast<double>(rng() & 0x7fefffffffffffffULL);
    const double next = std::nextafter(d, std::numeric_limits<double>::infinity());
    const long double mid = (static_cast<long double>(d) + next) / 2;
    std::snprintf(buf, sizeof(buf), "%.*Le", 15 + below(25), mid);
    tokens.emplace_back(buf);
  }
  // Long digit runs with a random point and exponent.
  for (int i = 0; i < 40000; ++i) {
    std::string tok;
    const int digits = 1 + below(40);
    const int point = below(digits + 2);
    for (int k = 0; k < digits; ++k) {
      if (k == point) tok += '.';
      tok += static_cast<char>('0' + below(10));
    }
    if (below(2) == 0) tok += "e" + std::to_string(below(700) - 350);
    tokens.push_back(tok);
  }
  EXPECT_EQ(number_mismatches(tokens), 0);
}

// --- nesting ------------------------------------------------------------

std::string nested_arrays(int levels) {
  return std::string(static_cast<std::size_t>(levels), '[') +
         std::string(static_cast<std::size_t>(levels), ']');
}

std::string nested_objects(int levels) {
  std::string out;
  for (int i = 0; i < levels; ++i) out += "{\"k\":";
  out += "1";
  out.append(static_cast<std::size_t>(levels), '}');
  return out;
}

/// True when Lexer::skip reads `doc` as one whole document.
bool skip_accepts(std::string_view doc) {
  try {
    Lexer in(doc);
    in.skip(0);
    in.end();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(JsonParse, NestingLimit) {
  // 100k levels used to overflow the stack; now a clean parse error.
  EXPECT_FALSE(try_parse(nested_arrays(100000)).has_value());
  EXPECT_FALSE(try_parse(nested_objects(100000)).has_value());
  EXPECT_FALSE(skip_accepts(nested_arrays(100000)));
  // Exactly kMaxDepth levels parse; one more does not.
  EXPECT_TRUE(try_parse(nested_arrays(kMaxDepth)).has_value());
  EXPECT_TRUE(try_parse(nested_objects(kMaxDepth)).has_value());
  EXPECT_THROW(parse(nested_arrays(kMaxDepth + 1)), std::runtime_error);
  EXPECT_THROW(parse(nested_objects(kMaxDepth + 1)), std::runtime_error);
  EXPECT_TRUE(skip_accepts(nested_objects(kMaxDepth)));
  EXPECT_FALSE(skip_accepts(nested_objects(kMaxDepth + 1)));
}

TEST(JsonLexer, SkipAcceptsWhatParseAccepts) {
  const std::vector<std::string> docs = {
      "", "{", "[1,", "{\"a\":}", "tru", "nul", "\"unterm", "1 2", "{'a':1}",
      "[1,]", "{\"a\":1,}", "null", "true", "-12", "1.5", "\"a\\nb\"", "[]",
      "{}", "[1,2,[3,{\"k\":\"v\"}]]", "{\"a\":{\"b\":[false,null,0.5]}}",
      " { \"a\" : [ 1 , 2 ] } ", "e", "+5", "[1-2,.,-.]", "-", "[-]",
      "\"\\u00e9\\ud800\"", "\"\\u12\"", "\"\\q\"", "\"\x01\xff\"", "{\"a\"}",
      "{\"a\":1 \"b\":2}", "[1 2]", "{1:2}", "[}", "]", "}", "truex",
      "[true,false,null]", "{\"a\":{\"b\":{}}}x"};
  for (const std::string& d : docs) {
    EXPECT_EQ(skip_accepts(d), try_parse(d).has_value()) << d;
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

class JsonFormatProducerValues : public ::testing::TestWithParam<int> {};

// 4 x 500,000 = 2M latencies drawn as run_fleet_scale's producer draws
// them, normal_min(25, 8, 0.1) on a vehicle's load stream: the values the
// frame path formats most.
TEST_P(JsonFormatProducerValues, MatchesTrialLoop) {
  util::RngStream load(7, util::format("scale.load/%d", GetParam()));
  std::vector<double> values(500000);
  for (double& d : values) d = load.normal_min(25.0, 8.0, 0.1);
  EXPECT_EQ(format_mismatches(values), 0);
}

INSTANTIATE_TEST_SUITE_P(Quarters, JsonFormatProducerValues,
                         ::testing::Values(0, 1, 2, 3));

TEST(JsonFormat, MatchesTrialLoopOnLocationFixes) {
  // loc.x and loc.y as run_fleet's vehicles report them: radius·cos and
  // radius·sin of an angle sweeping the ring, through the zeros of both,
  // where a fix shrinks to the round-off of cos(π/2) and prints in
  // scientific form.
  constexpr int kVehicles = 256;
  std::vector<double> values;
  for (int i = 0; i < kVehicles; ++i) {
    const double radius = 200.0 + 25.0 * static_cast<double>(i);
    for (int t = 0; t <= 960; ++t) {  // one lap, every 0.5 s
      const double angle =
          2.0 * 3.14159265358979323846 *
          (static_cast<double>(i) / kVehicles + t * 0.5 / 480.0);
      values.push_back(radius * std::cos(angle));
      values.push_back(radius * std::sin(angle));
    }
  }
  EXPECT_EQ(format_mismatches(values), 0);
}

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
