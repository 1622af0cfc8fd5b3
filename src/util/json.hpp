// Minimal JSON value type, lexer, parser, and serializer.
//
// OpenVDAP uses JSON as the interchange format between libvdap's RESTful API,
// the DDI service layer, and external feeds (weather/traffic/social). The
// subset implemented here is full RFC 8259 JSON minus \u surrogate pairs
// beyond the BMP (sufficient for platform telemetry and API payloads).
#pragma once

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vdap::json {

class Value;

using Array = std::vector<Value>;
// std::map keeps object keys ordered, which makes serialization
// deterministic — important for tests and content hashing.
using Object = std::map<std::string, Value>;

enum class Type { Null, Bool, Int, Double, String, Array, Object };

/// A dynamically-typed JSON value with value semantics.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  /// A value above INT64_MAX is stored as the nearest double, which is
  /// what a JSON reader reads back anyway.
  Value(std::uint64_t i) {
    if (i <= static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
      data_ = static_cast<std::int64_t>(i);
    } else {
      data_ = static_cast<double>(i);
    }
  }
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_int() const { return type() == Type::Int; }
  bool is_double() const { return type() == Type::Double; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  bool as_bool() const { return get<bool>("bool"); }
  /// A double converts as double_to_int does.
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const { return get<std::string>("string"); }
  const Array& as_array() const { return get<Array>("array"); }
  Array& as_array() { return get<Array>("array"); }
  const Object& as_object() const { return get<Object>("object"); }
  Object& as_object() { return get<Object>("object"); }

  /// Object member access; throws std::out_of_range when missing.
  const Value& at(const std::string& key) const;
  /// Array element access; throws std::out_of_range when out of bounds.
  const Value& at(std::size_t idx) const;
  /// True when this is an object containing `key`.
  bool contains(const std::string& key) const;
  /// Object member lookup returning nullptr when absent (or not an object).
  const Value* find(const std::string& key) const;

  /// Inserting accessor: turns Null into an Object on first use.
  Value& operator[](const std::string& key);

  std::size_t size() const;

  // Typed getters with defaults, the common pattern for config payloads.
  std::int64_t get_int(const std::string& key, std::int64_t def = 0) const;
  double get_double(const std::string& key, double def = 0.0) const;
  std::string get_string(const std::string& key, std::string def = "") const;
  bool get_bool(const std::string& key, bool def = false) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

  /// Compact single-line serialization.
  std::string dump() const;
  /// Pretty-printed serialization with two-space indentation.
  std::string pretty() const;

 private:
  template <typename T>
  const T& get(const char* what) const {
    const T* p = std::get_if<T>(&data_);
    if (p == nullptr) {
      throw std::runtime_error(std::string("json: value is not a ") + what);
    }
    return *p;
  }
  template <typename T>
  T& get(const char* what) {
    T* p = std::get_if<T>(&data_);
    if (p == nullptr) {
      throw std::runtime_error(std::string("json: value is not a ") + what);
    }
    return *p;
  }

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Parses `text` as JSON. Throws std::runtime_error with position info on
/// malformed input; trailing non-whitespace is an error, and so is
/// container nesting deeper than kMaxDepth.
Value parse(std::string_view text);

/// Parse variant that returns std::nullopt instead of throwing.
std::optional<Value> try_parse(std::string_view text);

/// Container nesting parse() accepts; the outermost container is level 1.
/// Deeper input is a parse error instead of a stack overflow.
inline constexpr int kMaxDepth = 512;

/// Truncates `d` toward zero, as Value::as_int reads a double. NaN and
/// values outside the int64 range give INT64_MIN, the value x86-64's
/// truncating conversion returns, instead of undefined behaviour.
constexpr std::int64_t double_to_int(double d) {
  // -2^63 and 2^63 are exact doubles.
  if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
    return static_cast<std::int64_t>(d);
  }
  return std::numeric_limits<std::int64_t>::min();
}

/// One number as the lexer reads it: an int when its token is an optional
/// '-' and digits that fit int64, else a double.
struct Number {
  bool is_int = false;
  std::int64_t i = 0;
  double d = 0.0;

  std::int64_t as_int() const { return is_int ? i : double_to_int(d); }
  double as_double() const { return is_int ? static_cast<double>(i) : d; }
};

/// The JSON lexer under parse(), for readers that walk a known document
/// shape straight into their own types without a Value tree (the fleet
/// wire decoder). One cursor over the text. Every method throws
/// std::runtime_error("json parse error at offset N: ...") on malformed
/// input, as parse() reports it. Nesting depths count as for kMaxDepth.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// The first character of the next value, unconsumed: '{', '[', '"',
  /// 't', 'f', 'n', or anything else for a number.
  char peek_value() {
    skip_ws();
    return peek();
  }

  /// Opens the container whose `open` ('{' or '[') is the next character;
  /// `depth` is its own nesting level, 1 for the outermost. False when the
  /// container is empty; its closing character is then consumed too.
  bool begin(char open, int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    expect(open);
    skip_ws();
    if (peek() != (open == '{' ? '}' : ']')) return true;
    ++pos_;
    return false;
  }

  /// After an object member or array element: true on ',', false on the
  /// container's `close` ('}' or ']').
  bool more(char close) {
    skip_ws();
    const char c = next();
    if (c == close) return false;
    if (c != ',') {
      fail(close == '}' ? "expected ',' or '}' in object"
                        : "expected ',' or ']' in array");
    }
    return true;
  }

  /// Reads an object member's key and the ':' after it. The view lives
  /// until the next key() or string().
  std::string_view key() {
    const std::string_view k = string();
    skip_ws();
    expect(':');
    return k;
  }

  /// Reads the string whose opening quote is the next non-whitespace
  /// character and returns its contents: a view of the text when it holds
  /// no escape, else of a buffer the next key() or string() reuses. Raw
  /// control bytes and invalid UTF-8 pass through; \u escapes become UTF-8.
  std::string_view string() {
    skip_ws();
    expect('"');
    const std::size_t start = pos_;
    for (; pos_ < text_.size(); ++pos_) {
      if (text_[pos_] == '\\') return escaped_string(start);
      if (text_[pos_] == '"') {
        ++pos_;
        return text_.substr(start, pos_ - 1 - start);
      }
    }
    fail("unexpected end of input");
  }

  /// Reads the number whose first character peek_value() returned. Its
  /// token is an optional '-', then the
  /// longest run of [0-9.eE+-]; empty or a lone '-' is malformed. A token
  /// with none of ".eE+-" after its sign reads as an int when it fits;
  /// anything else reads as strtod reads the whole token (so "e" is 0.0,
  /// "+5" is 5.0, "1-2" is 1.0 and "1e999" is inf).
  Number number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    for (; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') continue;
      if (c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-') break;
      is_double = true;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("invalid number");
    Number n;
    if (!is_double) {
      const char* last = tok.data() + tok.size();
      const auto [p, ec] = std::from_chars(tok.data(), last, n.i);
      n.is_int = ec == std::errc() && p == last;
    }
    if (!n.is_int) n.d = to_double(tok);
    return n;
  }

  /// Consumes `word` ("true", "false" or "null") where peek_value()
  /// returned its first character.
  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
  }

  /// Reads and discards one value of any type, checking it as parse()
  /// would; `depth` is the nesting level of the container holding it, 0
  /// at the top level.
  void skip(int depth);

  /// Requires that nothing but whitespace is left.
  void end() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
  }

 private:
  /// Skips JSON whitespace: space, tab, LF and CR.
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  /// Consumes `c`, which must be the next character.
  void expect(char c) {
    if (next() != c) fail_expected(c);
  }
  [[noreturn]] void fail(const char* why) const;
  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  [[noreturn]] void fail_expected(char c) const;
  /// string()'s slow path from the first backslash on.
  std::string_view escaped_string(std::size_t start);
  /// strtod(std::string(tok).c_str()), without the copy when from_chars
  /// reads the whole token.
  static double to_double(std::string_view tok);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string unescaped_;  // contents of the last string that held an escape
};

/// Escapes a string for embedding into JSON output (adds quotes).
std::string escape(std::string_view s);

// Streaming writers: append one value's JSON text to `out`. Value::dump()
// is built on them, and so are the fleet wire encoder and the telemetry
// exporters, which write their fixed layouts without a Value tree; all
// format scalars identically.

/// Appends `s` quoted and escaped, exactly as escape() returns it.
void append_string(std::string& out, std::string_view s);
/// Appends `i` in decimal.
void append_int(std::string& out, std::int64_t i);
/// Appends `d` as `%.Pg` with the smallest P in 1..17 whose text parses
/// back to `d`; NaN and ±Inf (which JSON lacks) append `null`. One
/// shortest-form std::to_chars call gives the text, except at exact
/// powers of two, which search P by trial.
void append_double(std::string& out, double d);
/// Appends `v` compact, exactly as v.dump() returns it.
void append_value(std::string& out, const Value& v);

}  // namespace vdap::json
