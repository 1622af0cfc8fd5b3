#include "telemetry/fleet/wire.hpp"

#include <cmath>

#include "util/json.hpp"

namespace vdap::telemetry::fleet {

namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool decode_counters(const json::Value& v, WireFrame& out,
                     std::string* error) {
  if (!v.is_object()) return fail(error, "wire: \"counters\" is not an object");
  for (const auto& [name, val] : v.as_object()) {
    if (!val.is_int()) {
      return fail(error, "wire: counter \"" + name + "\" is not an integer");
    }
    out.counters[name] = val.as_int();
  }
  return true;
}

bool decode_gauges(const json::Value& v, WireFrame& out, std::string* error) {
  if (!v.is_object()) return fail(error, "wire: \"gauges\" is not an object");
  for (const auto& [name, val] : v.as_object()) {
    if (!val.is_number()) {
      return fail(error, "wire: gauge \"" + name + "\" is not a number");
    }
    out.gauges[name] = val.as_double();
  }
  return true;
}

bool decode_samples(const json::Value& v, WireFrame& out, std::string* error) {
  if (!v.is_object()) return fail(error, "wire: \"samples\" is not an object");
  for (const auto& [name, arr] : v.as_object()) {
    if (!arr.is_array()) {
      return fail(error, "wire: samples \"" + name + "\" is not an array");
    }
    std::vector<WireSample>& dst = out.samples[name];
    for (const json::Value& pair : arr.as_array()) {
      if (!pair.is_array() || pair.size() != 2 || !pair.at(0).is_int() ||
          !pair.at(1).is_number()) {
        return fail(error, "wire: samples \"" + name +
                               "\" entry is not [ts, value]");
      }
      const double value = pair.at(1).as_double();
      if (!std::isfinite(value)) {
        return fail(error, "wire: samples \"" + name + "\" value not finite");
      }
      dst.emplace_back(pair.at(0).as_int(), value);
    }
  }
  return true;
}

bool decode_events(const json::Value& v, WireFrame& out, std::string* error) {
  if (!v.is_array()) return fail(error, "wire: \"events\" is not an array");
  for (const json::Value& ev : v.as_array()) {
    if (!ev.is_object()) {
      return fail(error, "wire: events entry is not an object");
    }
    WireHealthEvent w;
    w.at = ev.get_int("at");
    w.kind = ev.get_string("kind");
    w.severity = ev.get_string("severity");
    w.service = ev.get_string("service");
    w.observed = ev.get_double("observed");
    w.target = ev.get_double("target");
    w.implicated_tier = ev.get_string("tier");
    if (w.kind.empty() || w.service.empty()) {
      return fail(error, "wire: events entry missing kind/service");
    }
    out.events.push_back(std::move(w));
  }
  return true;
}

/// Writes the ',' before a list element unless it is the list's first,
/// which directly follows the opening '{' or '['.
void separate(std::string& out) {
  if (out.back() != '{' && out.back() != '[') out.push_back(',');
}

}  // namespace

std::string wire_encode(const WireFrame& frame) {
  // Keys in sorted (json::Object) order, empty sections omitted; the
  // Wire.EncoderMatchesObjectEncoder test pins these bytes.
  std::string out = "{";
  if (!frame.counters.empty()) {
    out += "\"counters\":{";
    for (const auto& [name, v] : frame.counters) {
      separate(out);
      json::append_string(out, name);
      out.push_back(':');
      json::append_int(out, v);
    }
    out += "},";
  }
  if (!frame.events.empty()) {
    out += "\"events\":[";
    for (const WireHealthEvent& ev : frame.events) {
      separate(out);
      out += "{\"at\":";
      json::append_int(out, ev.at);
      out += ",\"kind\":";
      json::append_string(out, ev.kind);
      out += ",\"observed\":";
      json::append_double(out, ev.observed);
      out += ",\"service\":";
      json::append_string(out, ev.service);
      out += ",\"severity\":";
      json::append_string(out, ev.severity);
      out += ",\"target\":";
      json::append_double(out, ev.target);
      if (!ev.implicated_tier.empty()) {
        out += ",\"tier\":";
        json::append_string(out, ev.implicated_tier);
      }
      out.push_back('}');
    }
    out += "],";
  }
  if (!frame.gauges.empty()) {
    out += "\"gauges\":{";
    for (const auto& [name, v] : frame.gauges) {
      separate(out);
      json::append_string(out, name);
      out.push_back(':');
      json::append_double(out, v);
    }
    out += "},";
  }
  if (!frame.samples.empty()) {
    out += "\"samples\":{";
    for (const auto& [name, vec] : frame.samples) {
      separate(out);
      json::append_string(out, name);
      out += ":[";
      for (const WireSample& s : vec) {
        separate(out);
        out.push_back('[');
        json::append_int(out, s.first);
        out.push_back(',');
        json::append_double(out, s.second);
        out.push_back(']');
      }
      out.push_back(']');
    }
    out += "},";
  }
  out += "\"seq\":";
  json::append_int(out, static_cast<std::int64_t>(frame.seq));
  out += ",\"t\":";
  json::append_int(out, frame.created);
  out += ",\"v\":";
  json::append_string(out, frame.vehicle);
  out.push_back('}');
  return out;
}

std::optional<WireFrame> wire_decode(std::string_view line,
                                     std::string* error) {
  std::optional<json::Value> parsed = json::try_parse(line);
  if (!parsed.has_value()) {
    fail(error, "wire: frame is not valid JSON");
    return std::nullopt;
  }
  if (!parsed->is_object()) {
    fail(error, "wire: frame is not a JSON object");
    return std::nullopt;
  }

  WireFrame out;
  out.vehicle = parsed->get_string("v");
  if (out.vehicle.empty()) {
    fail(error, "wire: frame missing vehicle (\"v\")");
    return std::nullopt;
  }
  const std::int64_t seq = parsed->get_int("seq", -1);
  if (seq < 1) {
    fail(error, "wire: frame missing positive \"seq\"");
    return std::nullopt;
  }
  out.seq = static_cast<std::uint64_t>(seq);
  out.created = parsed->get_int("t", -1);
  if (out.created < 0) {
    fail(error, "wire: frame missing timestamp (\"t\")");
    return std::nullopt;
  }

  if (const json::Value* v = parsed->find("counters")) {
    if (!decode_counters(*v, out, error)) return std::nullopt;
  }
  if (const json::Value* v = parsed->find("gauges")) {
    if (!decode_gauges(*v, out, error)) return std::nullopt;
  }
  if (const json::Value* v = parsed->find("samples")) {
    if (!decode_samples(*v, out, error)) return std::nullopt;
  }
  if (const json::Value* v = parsed->find("events")) {
    if (!decode_events(*v, out, error)) return std::nullopt;
  }
  return out;
}

std::string_view wire_peek_vehicle(std::string_view line) {
  constexpr std::string_view kKey = "\"v\":\"";
  const std::size_t pos = line.rfind(kKey);
  if (pos == std::string_view::npos) return {};
  const std::size_t start = pos + kKey.size();
  std::size_t end = start;
  while (end < line.size() && line[end] != '"') {
    if (line[end] == '\\') ++end;  // skip the escaped character
    ++end;
  }
  if (end > line.size()) return {};  // dangling escape
  if (end == line.size()) return {};  // unterminated string
  return line.substr(start, end - start);
}

}  // namespace vdap::telemetry::fleet
