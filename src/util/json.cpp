#include "util/json.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace vdap::json {

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* d = std::get_if<double>(&data_)) return double_to_int(*d);
  throw std::runtime_error("json: value is not a number");
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  throw std::runtime_error("json: value is not a number");
}

const Value& Value::at(const std::string& key) const {
  const Object& o = as_object();
  auto it = o.find(key);
  if (it == o.end()) {
    throw std::out_of_range("json: missing key '" + key + "'");
  }
  return it->second;
}

const Value& Value::at(std::size_t idx) const {
  const Array& a = as_array();
  if (idx >= a.size()) throw std::out_of_range("json: index out of range");
  return a[idx];
}

bool Value::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const Value* Value::find(const std::string& key) const {
  const Object* o = std::get_if<Object>(&data_);
  if (o == nullptr) return nullptr;
  auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

Value& Value::operator[](const std::string& key) {
  if (is_null()) data_ = Object{};
  return get<Object>("object")[key];
}

std::size_t Value::size() const {
  if (const auto* a = std::get_if<Array>(&data_)) return a->size();
  if (const auto* o = std::get_if<Object>(&data_)) return o->size();
  return 0;
}

std::int64_t Value::get_int(const std::string& key, std::int64_t def) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : def;
}

double Value::get_double(const std::string& key, double def) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : def;
}

std::string Value::get_string(const std::string& key, std::string def) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::move(def);
}

bool Value::get_bool(const std::string& key, bool def) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : def;
}

namespace {

void append_u_escape(std::string& out, unsigned code) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04x", code);
  out += buf;
}

/// Decodes one UTF-8 sequence starting at s[i]; advances i past it and
/// returns the code point, or returns 0xFFFD (advancing one byte) on an
/// invalid/truncated/overlong sequence so malformed labels still yield
/// valid JSON.
unsigned decode_utf8(std::string_view s, std::size_t& i) {
  const auto b0 = static_cast<unsigned char>(s[i]);
  int len = 0;
  unsigned code = 0;
  unsigned min = 0;
  if ((b0 & 0xE0) == 0xC0) {
    len = 2; code = b0 & 0x1Fu; min = 0x80;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3; code = b0 & 0x0Fu; min = 0x800;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4; code = b0 & 0x07u; min = 0x10000;
  } else {
    ++i;
    return 0xFFFD;  // stray continuation or invalid lead byte
  }
  if (i + static_cast<std::size_t>(len) > s.size()) {
    ++i;
    return 0xFFFD;
  }
  for (int k = 1; k < len; ++k) {
    const auto b = static_cast<unsigned char>(s[i + static_cast<std::size_t>(k)]);
    if ((b & 0xC0) != 0x80) {
      ++i;
      return 0xFFFD;
    }
    code = (code << 6) | (b & 0x3Fu);
  }
  // Reject overlong encodings, UTF-16 surrogate code points and
  // out-of-range values — all invalid UTF-8.
  if (code < min || code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF)) {
    ++i;
    return 0xFFFD;
  }
  i += static_cast<std::size_t>(len);
  return code;
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_string(out, s);
  return out;
}

void append_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (std::size_t i = 0; i < s.size();) {
    char c = s[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      default: break;
    }
    const auto b = static_cast<unsigned char>(c);
    if (b < 0x20) {
      append_u_escape(out, b);
      ++i;
    } else if (b < 0x80) {
      out.push_back(c);
      ++i;
    } else {
      // Non-ASCII: BMP code points become \uXXXX (the output stays pure
      // ASCII and our own parser decodes them back); valid astral
      // sequences pass through as raw UTF-8 (the parser has no surrogate
      // pairs); invalid bytes become U+FFFD instead of corrupting the
      // document.
      std::size_t start = i;
      unsigned code = decode_utf8(s, i);
      if (code <= 0xFFFF) {
        append_u_escape(out, code);
      } else {
        out.append(s.substr(start, i - start));
      }
    }
  }
  out.push_back('"');
}

void append_int(std::string& out, std::int64_t i) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), i);
  out.append(buf, r.ptr);
}

namespace {

/// `%.Pg` at the smallest P whose text parses back to `d`, by trial.
/// `general` at precision P is exactly `%.Pg`; no P-digit text round-trips
/// for P below the digit count of the shortest round-trip form, so the
/// trial starts there and steps up until the text parses back (%.17g
/// always does).
void append_double_by_trial(std::string& out, double d) {
  char buf[32];
  char* const end = buf + sizeof(buf);
  char* p = std::to_chars(buf, end, d, std::chars_format::scientific).ptr;
  int prec = 0;
  for (const char* c = buf; c != p && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++prec;
  }
  for (;; ++prec) {
    p = std::to_chars(buf, end, d, std::chars_format::general, prec).ptr;
    if (prec >= 17) break;
    double back = 0.0;
    if (std::from_chars(buf, p, back).ec == std::errc() && back == d) break;
  }
  out.append(buf, p);
}

}  // namespace

void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no NaN/Inf; emit null (matches common lenient serializers).
    out += "null";
    return;
  }
  // The shortest round-trip digits are the correctly rounded P-digit
  // digits, so they are %.Pg's digits, wherever the rounding interval is
  // symmetric. At an exact power of two the interval below is half the
  // one above, and the correctly rounded text can miss it (2^-1017 needs
  // 17 digits where the shortest form has 16): those take the trial.
  const auto bits = std::bit_cast<std::uint64_t>(d);
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kExponent = std::uint64_t{0x7ff} << 52;
  if ((bits & kMantissa) == 0 && (bits & kExponent) != 0) {
    append_double_by_trial(out, d);
    return;
  }
  // One conversion: d[.ddd]e±XX with the shortest digits. Scientific is
  // %.Pg's own layout when X < -4 or X >= P, and then the text is already
  // %.Pg's (the digits carry no trailing zero, and both write at least two
  // exponent digits).
  char buf[32];
  const char* const end =
      std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::scientific)
          .ptr;
  const char* digits = buf;
  if (*digits == '-') ++digits;
  const char* const e = std::find(digits, end, 'e');
  int exp = 0;
  std::from_chars(e + 1 + (e[1] == '+'), end, exp);
  const int prec = e - digits > 1 ? static_cast<int>(e - digits) - 1 : 1;
  if (exp < -4 || exp >= prec) {
    out.append(buf, static_cast<std::size_t>(end - buf));
    return;
  }
  // Fixed, as %.Pg lays it out: P significant digits, the point after
  // digit X + 1, no trailing zeros (so no point when nothing follows it).
  if (digits != buf) out += '-';
  if (exp < 0) {
    out += "0.";
    out.append(static_cast<std::size_t>(-exp - 1), '0');
    out += digits[0];
    if (prec > 1) out.append(digits + 2, e);
    return;
  }
  out += digits[0];
  if (prec == 1) return;
  // The scientific form's fraction starts at digits + 2; %.Pg puts its
  // point X digits into it.
  const char* const point = digits + 2 + exp;
  out.append(digits + 2, point);
  if (point != e) {
    out += '.';
    out.append(point, e);
  }
}

namespace {

void dump_impl(const Value& v, std::string& out, int indent, int depth) {
  auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Type::Int: append_int(out, v.as_int()); break;
    case Type::Double: append_double(out, v.as_double()); break;
    case Type::String: append_string(out, v.as_string()); break;
    case Type::Array: {
      const Array& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Value& e : a) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        dump_impl(e, out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::Object: {
      const Object& o = v.as_object();
      if (o.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, e] : o) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        append_string(out, k);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        dump_impl(e, out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

/// `depth` is the nesting level of the container holding the value.
Value parse_value(Lexer& in, int depth) {
  switch (in.peek_value()) {
    case '{': {
      Object o;
      if (in.begin('{', depth + 1)) {
        do {
          // Copied first: the right side of `=` runs before the left, and
          // reading the value may reuse the buffer the key's view is in.
          std::string key(in.key());
          o[std::move(key)] = parse_value(in, depth + 1);
        } while (in.more('}'));
      }
      return Value(std::move(o));
    }
    case '[': {
      Array a;
      if (in.begin('[', depth + 1)) {
        do {
          a.push_back(parse_value(in, depth + 1));
        } while (in.more(']'));
      }
      return Value(std::move(a));
    }
    case '"': return Value(in.string());
    case 't': in.literal("true"); return Value(true);
    case 'f': in.literal("false"); return Value(false);
    case 'n': in.literal("null"); return Value(nullptr);
    default: {
      const Number n = in.number();
      return n.is_int ? Value(n.i) : Value(n.d);
    }
  }
}

}  // namespace

void Lexer::fail(const char* why) const {
  throw std::runtime_error("json parse error at offset " +
                           std::to_string(pos_) + ": " + why);
}

void Lexer::fail_expected(char c) const {
  const std::string why = std::string("expected '") + c + "'";
  fail(why.c_str());
}

std::string_view Lexer::escaped_string(std::size_t start) {
  unescaped_.assign(text_.substr(start, pos_ - start));
  while (true) {
    const char c = next();
    if (c == '"') break;
    if (c != '\\') {
      unescaped_.push_back(c);
      continue;
    }
    switch (next()) {
      case '"': unescaped_.push_back('"'); break;
      case '\\': unescaped_.push_back('\\'); break;
      case '/': unescaped_.push_back('/'); break;
      case 'n': unescaped_.push_back('\n'); break;
      case 't': unescaped_.push_back('\t'); break;
      case 'r': unescaped_.push_back('\r'); break;
      case 'b': unescaped_.push_back('\b'); break;
      case 'f': unescaped_.push_back('\f'); break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = next();
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail("invalid \\u escape");
        }
        // Encode the BMP code point as UTF-8.
        if (code < 0x80) {
          unescaped_.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          unescaped_.push_back(static_cast<char>(0xC0 | (code >> 6)));
          unescaped_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          unescaped_.push_back(static_cast<char>(0xE0 | (code >> 12)));
          unescaped_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          unescaped_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: fail("invalid escape sequence");
    }
  }
  return unescaped_;
}

double Lexer::to_double(std::string_view tok) {
  // Both parses are correctly rounded, so they agree wherever from_chars
  // reads the whole token. It stops early or fails on the lenient tokens
  // ("+5", "1e", "1-2") and out of range ("1e999"); strtod reads those.
  double d = 0.0;
  const char* last = tok.data() + tok.size();
  const auto [p, ec] = std::from_chars(tok.data(), last, d);
  if (ec == std::errc() && p == last) return d;
  return std::strtod(std::string(tok).c_str(), nullptr);
}

void Lexer::skip(int depth) {
  switch (peek_value()) {
    case '{':
      if (begin('{', depth + 1)) {
        do {
          key();
          skip(depth + 1);
        } while (more('}'));
      }
      return;
    case '[':
      if (begin('[', depth + 1)) {
        do {
          skip(depth + 1);
        } while (more(']'));
      }
      return;
    case '"': string(); return;
    case 't': literal("true"); return;
    case 'f': literal("false"); return;
    case 'n': literal("null"); return;
    default: number(); return;
  }
}

void append_value(std::string& out, const Value& v) {
  dump_impl(v, out, /*indent=*/-1, 0);
}

std::string Value::dump() const {
  std::string out;
  append_value(out, *this);
  return out;
}

std::string Value::pretty() const {
  std::string out;
  dump_impl(*this, out, /*indent=*/2, 0);
  return out;
}

Value parse(std::string_view text) {
  Lexer in(text);
  Value v = parse_value(in, 0);
  in.end();
  return v;
}

std::optional<Value> try_parse(std::string_view text) {
  try {
    return parse(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace vdap::json
