// Minimal JSON value type, parser, and serializer.
//
// OpenVDAP uses JSON as the interchange format between libvdap's RESTful API,
// the DDI service layer, and external feeds (weather/traffic/social). The
// subset implemented here is full RFC 8259 JSON minus \u surrogate pairs
// beyond the BMP (sufficient for platform telemetry and API payloads).
#pragma once

#include <cstdint>
#include <initializer_list>
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
  Value(std::uint64_t i) : data_(static_cast<std::int64_t>(i)) {}
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
/// malformed input; trailing non-whitespace is an error.
Value parse(std::string_view text);

/// Parse variant that returns std::nullopt instead of throwing.
std::optional<Value> try_parse(std::string_view text);

/// Escapes a string for embedding into JSON output (adds quotes).
std::string escape(std::string_view s);

// Streaming writers: append one scalar's JSON text to `out`. Value::dump()
// is built on them, and so is the fleet wire encoder, which writes its
// fixed layout without a Value tree; both format scalars identically.

/// Appends `s` quoted and escaped, exactly as escape() returns it.
void append_string(std::string& out, std::string_view s);
/// Appends `i` in decimal.
void append_int(std::string& out, std::int64_t i);
/// Appends `d` as `%.Pg` with the smallest P in 1..17 whose text parses
/// back to `d`; NaN and ±Inf (which JSON lacks) append `null`.
void append_double(std::string& out, double d);

}  // namespace vdap::json
