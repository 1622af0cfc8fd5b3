#include "telemetry/fleet/wire.hpp"

#include <cmath>
#include <exception>
#include <stdexcept>

#include "util/json.hpp"

namespace vdap::telemetry::fleet {

namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Nesting levels of the containers a frame holds, as json::kMaxDepth
// counts them.
constexpr int kFrameDepth = 1;    // the frame object
constexpr int kSectionDepth = 2;  // counters, gauges, samples, events
constexpr int kEntryDepth = 3;    // one metric's samples array, one event
constexpr int kPairDepth = 4;     // one [ts, value] sample

/// True when a value starting with `c` is read as a number: anything but an
/// object, array, string or literal.
bool starts_number(char c) {
  return c != '{' && c != '[' && c != '"' && c != 't' && c != 'f' && c != 'n';
}

/// One section's errors while its frame is read, reported in the old
/// decoder's order once the whole line has parsed: the section's own type
/// error, else its bad member whose name sorts first. json::Object keeps
/// the last of duplicate keys, so a later member of the same name replaces
/// that name's verdict, and a repeated section starts over (reset()).
class SectionErrors {
 public:
  void reset() {
    whole_.clear();
    by_name_.clear();
  }
  void whole(std::string message) { whole_ = std::move(message); }
  void bad(std::string name, std::string message) {
    by_name_.insert_or_assign(std::move(name), std::move(message));
  }
  void good(const std::string& name) {
    if (!by_name_.empty()) by_name_.erase(name);
  }
  const std::string* first() const {
    if (!whole_.empty()) return &whole_;
    return by_name_.empty() ? nullptr : &by_name_.begin()->second;
  }

 private:
  std::string whole_;
  std::map<std::string, std::string> by_name_;
};

/// Reads one frame line in a single pass of json::Lexer, straight into a
/// WireFrame. The old decoder parsed the line into a json::Value first and
/// then checked it, so a syntax error anywhere outranks every other error;
/// read() therefore only records the checks, and finish() reports them.
class FrameReader {
 public:
  explicit FrameReader(std::string_view line) : in_(line) {}

  /// Reads the whole line; throws std::runtime_error where it is not JSON.
  void read();
  /// The frame, or nullopt with the old decoder's first error in *error.
  std::optional<WireFrame> finish(std::string* error);

 private:
  // The old decoder's typed getters: a value of another type reads as the
  // default.
  std::int64_t int_or(std::int64_t def, int depth) {
    json::Number n;
    return number(n, depth) ? n.as_int() : def;
  }
  double double_or(double def, int depth) {
    json::Number n;
    return number(n, depth) ? n.as_double() : def;
  }
  void string_or_empty(std::string& out, int depth) {
    if (in_.peek_value() == '"') {
      out = in_.string();
    } else {
      in_.skip(depth);
      out.clear();
    }
  }
  /// True with the number in `n` when the next value is one.
  bool number(json::Number& n, int depth) {
    if (starts_number(in_.peek_value())) {
      n = in_.number();
      return true;
    }
    in_.skip(depth);
    return false;
  }

  void read_counters();
  void read_gauges();
  void read_samples();
  const char* read_series(std::vector<WireSample>& series);
  bool read_pair(WireSample& out);
  void read_events();
  void read_event(WireHealthEvent& ev);

  json::Lexer in_;
  WireFrame frame_;
  bool object_ = true;
  std::int64_t seq_ = -1;
  std::int64_t t_ = -1;
  SectionErrors counters_errors_;
  SectionErrors gauges_errors_;
  SectionErrors samples_errors_;
  std::string events_error_;  // the first bad entry's
};

void FrameReader::read() {
  if (in_.peek_value() != '{') {
    object_ = false;
    in_.skip(0);
  } else if (in_.begin('{', kFrameDepth)) {
    do {
      const std::string_view key = in_.key();
      if (key == "v") {
        string_or_empty(frame_.vehicle, kFrameDepth);
      } else if (key == "seq") {
        seq_ = int_or(-1, kFrameDepth);
      } else if (key == "t") {
        t_ = int_or(-1, kFrameDepth);
      } else if (key == "counters") {
        read_counters();
      } else if (key == "gauges") {
        read_gauges();
      } else if (key == "samples") {
        read_samples();
      } else if (key == "events") {
        read_events();
      } else {
        in_.skip(kFrameDepth);  // a newer vehicle's field
      }
    } while (in_.more('}'));
  }
  in_.end();
}

void FrameReader::read_counters() {
  frame_.counters.clear();
  counters_errors_.reset();
  if (in_.peek_value() != '{') {
    in_.skip(kFrameDepth);
    counters_errors_.whole("wire: \"counters\" is not an object");
    return;
  }
  if (!in_.begin('{', kSectionDepth)) return;
  do {
    std::string name(in_.key());
    json::Number n;
    if (number(n, kSectionDepth) && n.is_int) {
      counters_errors_.good(name);
      frame_.counters.insert_or_assign(std::move(name), n.i);
    } else {
      counters_errors_.bad(name,
                           "wire: counter \"" + name + "\" is not an integer");
    }
  } while (in_.more('}'));
}

void FrameReader::read_gauges() {
  frame_.gauges.clear();
  gauges_errors_.reset();
  if (in_.peek_value() != '{') {
    in_.skip(kFrameDepth);
    gauges_errors_.whole("wire: \"gauges\" is not an object");
    return;
  }
  if (!in_.begin('{', kSectionDepth)) return;
  do {
    std::string name(in_.key());
    json::Number n;
    if (number(n, kSectionDepth)) {
      gauges_errors_.good(name);
      frame_.gauges.insert_or_assign(std::move(name), n.as_double());
    } else {
      gauges_errors_.bad(name, "wire: gauge \"" + name + "\" is not a number");
    }
  } while (in_.more('}'));
}

void FrameReader::read_samples() {
  frame_.samples.clear();
  samples_errors_.reset();
  if (in_.peek_value() != '{') {
    in_.skip(kFrameDepth);
    samples_errors_.whole("wire: \"samples\" is not an object");
    return;
  }
  if (!in_.begin('{', kSectionDepth)) return;
  do {
    // An empty or bad array still creates the name's entry.
    auto& [name, series] =
        *frame_.samples.try_emplace(std::string(in_.key())).first;
    series.clear();
    if (const char* problem = read_series(series)) {
      samples_errors_.bad(name, "wire: samples \"" + name + problem);
    } else {
      samples_errors_.good(name);
    }
  } while (in_.more('}'));
}

/// Reads one metric's samples array into `series`. Returns the tail of the
/// old decoder's message for its first bad entry, or nullptr.
const char* FrameReader::read_series(std::vector<WireSample>& series) {
  if (in_.peek_value() != '[') {
    in_.skip(kSectionDepth);
    return "\" is not an array";
  }
  if (!in_.begin('[', kEntryDepth)) return nullptr;
  const char* problem = nullptr;
  do {
    WireSample s;
    const bool pair = read_pair(s);
    if (problem != nullptr) continue;
    if (!pair) {
      problem = "\" entry is not [ts, value]";
    } else if (!std::isfinite(s.second)) {
      problem = "\" value not finite";
    } else {
      series.push_back(s);
    }
  } while (in_.more(']'));
  return problem;
}

/// Reads one samples entry; true when it is an [int, number] pair.
bool FrameReader::read_pair(WireSample& out) {
  if (in_.peek_value() != '[') {
    in_.skip(kEntryDepth);
    return false;
  }
  if (!in_.begin('[', kPairDepth)) return false;  // []
  json::Number ts;
  json::Number value;
  const bool ts_ok = number(ts, kPairDepth) && ts.is_int;
  if (!in_.more(']')) return false;  // [ts]
  const bool value_ok = number(value, kPairDepth);
  if (!in_.more(']')) {
    out = {ts.i, value.as_double()};
    return ts_ok && value_ok;
  }
  do {
    in_.skip(kPairDepth);  // a third element and on
  } while (in_.more(']'));
  return false;
}

void FrameReader::read_events() {
  frame_.events.clear();
  events_error_.clear();
  if (in_.peek_value() != '[') {
    in_.skip(kFrameDepth);
    events_error_ = "wire: \"events\" is not an array";
    return;
  }
  if (!in_.begin('[', kSectionDepth)) return;
  do {
    if (in_.peek_value() != '{') {
      in_.skip(kSectionDepth);
      if (events_error_.empty()) {
        events_error_ = "wire: events entry is not an object";
      }
      continue;
    }
    WireHealthEvent& ev = frame_.events.emplace_back();
    read_event(ev);
    if ((ev.kind.empty() || ev.service.empty()) && events_error_.empty()) {
      events_error_ = "wire: events entry missing kind/service";
    }
  } while (in_.more(']'));
}

void FrameReader::read_event(WireHealthEvent& ev) {
  if (!in_.begin('{', kEntryDepth)) return;
  do {
    const std::string_view field = in_.key();
    if (field == "at") {
      ev.at = int_or(0, kEntryDepth);
    } else if (field == "kind") {
      string_or_empty(ev.kind, kEntryDepth);
    } else if (field == "severity") {
      string_or_empty(ev.severity, kEntryDepth);
    } else if (field == "service") {
      string_or_empty(ev.service, kEntryDepth);
    } else if (field == "observed") {
      ev.observed = double_or(0.0, kEntryDepth);
    } else if (field == "target") {
      ev.target = double_or(0.0, kEntryDepth);
    } else if (field == "tier") {
      string_or_empty(ev.implicated_tier, kEntryDepth);
    } else {
      in_.skip(kEntryDepth);
    }
  } while (in_.more('}'));
}

std::optional<WireFrame> FrameReader::finish(std::string* error) {
  const char* header = nullptr;
  if (!object_) {
    header = "wire: frame is not a JSON object";
  } else if (frame_.vehicle.empty()) {
    header = "wire: frame missing vehicle (\"v\")";
  } else if (seq_ < 1) {
    header = "wire: frame missing positive \"seq\"";
  } else if (t_ < 0) {
    header = "wire: frame missing timestamp (\"t\")";
  }
  if (header != nullptr) {
    fail(error, header);
    return std::nullopt;
  }
  for (const SectionErrors* s :
       {&counters_errors_, &gauges_errors_, &samples_errors_}) {
    if (const std::string* e = s->first()) {
      fail(error, *e);
      return std::nullopt;
    }
  }
  if (!events_error_.empty()) {
    fail(error, events_error_);
    return std::nullopt;
  }
  frame_.seq = static_cast<std::uint64_t>(seq_);
  frame_.created = t_;
  return std::move(frame_);
}

/// This thread's frame buffer, which every WireWriter on it fills.
std::string& frame_buffer() {
  thread_local std::string out;
  return out;
}

}  // namespace

WireWriter::WireWriter() : out_(frame_buffer()) { out_.assign(1, '{'); }

void WireWriter::open(Section section) {
  if (section == section_) {
    out_.push_back(',');
    return;
  }
  if (section < section_) {
    throw std::logic_error("wire: frame section written out of key order");
  }
  close_section();
  section_ = section;
  switch (section) {
    case Section::kCounters: out_ += "\"counters\":{"; break;
    case Section::kEvents: out_ += "\"events\":["; break;
    case Section::kGauges: out_ += "\"gauges\":{"; break;
    case Section::kSamples: out_ += "\"samples\":{"; break;
    case Section::kNone: break;
  }
}

void WireWriter::close_section() {
  if (section_ == Section::kNone) return;
  out_ += section_ == Section::kEvents ? "]," : "},";
}

void WireWriter::counter(std::string_view name, std::int64_t delta) {
  open(Section::kCounters);
  json::append_string(out_, name);
  out_.push_back(':');
  json::append_int(out_, delta);
}

void WireWriter::event(const WireHealthEvent& ev) {
  open(Section::kEvents);
  out_ += "{\"at\":";
  json::append_int(out_, ev.at);
  out_ += ",\"kind\":";
  json::append_string(out_, ev.kind);
  out_ += ",\"observed\":";
  json::append_double(out_, ev.observed);
  out_ += ",\"service\":";
  json::append_string(out_, ev.service);
  out_ += ",\"severity\":";
  json::append_string(out_, ev.severity);
  out_ += ",\"target\":";
  json::append_double(out_, ev.target);
  if (!ev.implicated_tier.empty()) {
    out_ += ",\"tier\":";
    json::append_string(out_, ev.implicated_tier);
  }
  out_.push_back('}');
}

void WireWriter::gauge(std::string_view name, double value) {
  open(Section::kGauges);
  json::append_string(out_, name);
  out_.push_back(':');
  json::append_double(out_, value);
}

void WireWriter::series(std::string_view name,
                        const std::vector<WireSample>& samples) {
  open(Section::kSamples);
  json::append_string(out_, name);
  out_ += ":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out_.push_back(',');
    out_.push_back('[');
    json::append_int(out_, samples[i].first);
    out_.push_back(',');
    json::append_double(out_, samples[i].second);
    out_.push_back(']');
  }
  out_.push_back(']');
}

std::string WireWriter::finish(std::uint64_t seq, sim::SimTime created,
                               std::string_view vehicle) {
  close_section();
  out_ += "\"seq\":";
  json::append_int(out_, static_cast<std::int64_t>(seq));
  out_ += ",\"t\":";
  json::append_int(out_, created);
  out_ += ",\"v\":";
  json::append_string(out_, vehicle);
  out_.push_back('}');
  return std::string(out_);
}

std::string wire_encode(const WireFrame& frame) {
  // Keys in sorted (json::Object) order, empty sections omitted; the
  // Wire.EncoderMatchesObjectEncoder test pins these bytes.
  WireWriter w;
  for (const auto& [name, delta] : frame.counters) w.counter(name, delta);
  for (const WireHealthEvent& ev : frame.events) w.event(ev);
  for (const auto& [name, value] : frame.gauges) w.gauge(name, value);
  for (const auto& [name, samples] : frame.samples) w.series(name, samples);
  return w.finish(frame.seq, frame.created, frame.vehicle);
}

std::optional<WireFrame> wire_decode(std::string_view line,
                                     std::string* error) {
  FrameReader reader(line);
  try {
    reader.read();
  } catch (const std::exception&) {
    fail(error, "wire: frame is not valid JSON");
    return std::nullopt;
  }
  return reader.finish(error);
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
