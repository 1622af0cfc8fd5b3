#include "telemetry/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace vdap::telemetry {

namespace fs = std::filesystem;

namespace {

/// Per-domain scratch rings, canonical folded history and wall-clock
/// plane, in records.
constexpr std::size_t kScratchCapacity = 4096;
constexpr std::size_t kMasterCapacity = 16384;
constexpr std::size_t kRuntimeCapacity = 1024;
/// Bundles per run; further triggers only count.
constexpr std::size_t kMaxBundles = 4;

void copy_field(char* dst, std::size_t cap, std::string_view src) {
  // An empty view's data() may be null, which memcpy must not see even
  // for zero bytes.
  if (src.empty()) return;
  const std::size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
  // The tail (including the terminator) is already zero: the caller
  // memset the whole record, which is what makes memcmp a content
  // comparison.
}

void put_u32(std::string& out, std::uint32_t v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.append(b, sizeof v);
}

void put_i32(std::string& out, std::int32_t v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.append(b, sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.append(b, sizeof v);
}

}  // namespace

std::string_view flight_kind_name(std::uint32_t kind) {
  switch (static_cast<FlightKind>(kind)) {
    case FlightKind::kMetric: return "metric";
    case FlightKind::kGauge: return "gauge";
    case FlightKind::kObserve: return "observe";
    case FlightKind::kSpanBegin: return "span-begin";
    case FlightKind::kSpanEnd: return "span-end";
    case FlightKind::kComplete: return "complete";
    case FlightKind::kInstant: return "instant";
    case FlightKind::kCounter: return "counter";
    case FlightKind::kHealth: return "health";
    case FlightKind::kFault: return "fault";
    case FlightKind::kIncident: return "incident";
    case FlightKind::kRuntime: return "runtime";
  }
  return "?";
}

FlightRecord make_flight_record(FlightKind kind, sim::SimTime ts,
                                std::string_view name, std::string_view track,
                                std::string_view detail, std::int64_t value,
                                double fvalue) {
  FlightRecord r;
  std::memset(&r, 0, sizeof r);
  r.ts = ts;
  r.value = value;
  r.fvalue = fvalue;
  r.kind = static_cast<std::uint32_t>(kind);
  copy_field(r.name, sizeof r.name, name);
  copy_field(r.track, sizeof r.track, track);
  copy_field(r.detail, sizeof r.detail, detail);
  return r;
}

bool flight_record_less(const FlightRecord& a, const FlightRecord& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  return std::memcmp(&a, &b, sizeof a) < 0;
}

// --- FlightRing -------------------------------------------------------------

void FlightRing::reset_capacity(std::size_t capacity) {
  slots_.assign(capacity, FlightRecord{});
  appended_ = 0;
  dropped_total_ = 0;
  drained_total_ = 0;
}

std::size_t FlightRing::size() const {
  const std::uint64_t cap = slots_.size();
  return static_cast<std::size_t>(appended_ < cap ? appended_ : cap);
}

std::uint64_t FlightRing::overwritten() const {
  const std::uint64_t cap = slots_.size();
  return appended_ > cap ? appended_ - cap : 0;
}

void FlightRing::snapshot_into(std::vector<FlightRecord>& out) const {
  const std::uint64_t cap = slots_.size();
  const std::size_t count = size();
  const std::uint64_t start = appended_ - count;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(slots_[static_cast<std::size_t>((start + i) % cap)]);
  }
}

void FlightRing::drain_into(std::vector<FlightRecord>& out) {
  snapshot_into(out);
  dropped_total_ += overwritten();
  drained_total_ += size();
  appended_ = 0;
}

// --- FlightRecorder ---------------------------------------------------------

FlightRecorder::FlightRecorder(int domains)
    : FlightRecorder(domains, Options()) {}

FlightRecorder::FlightRecorder(int domains, Options opts)
    : opts_(std::move(opts)),
      rings_(static_cast<std::size_t>(std::max(domains, 1))),
      master_(kMasterCapacity),
      runtime_(kRuntimeCapacity) {
  for (FlightRing& r : rings_) {
    r.reset_capacity(kScratchCapacity);
    r.set_owner(this);
    r.mirror_ = opts_.mirror;
  }
}

void FlightRecorder::set_context(std::uint64_t seed, std::string plan,
                                 json::Value config) {
  seed_ = seed;
  plan_ = std::move(plan);
  config_ = std::move(config);
}

void FlightRecorder::set_manifest_hook(
    std::function<void(json::Object&)> hook) {
  manifest_hook_ = std::move(hook);
}

std::uint64_t FlightRecorder::scratch_dropped() const {
  std::uint64_t total = 0;
  for (const FlightRing& r : rings_) total += r.dropped_total();
  return total;
}

void FlightRecorder::fold_barrier(sim::SimTime now) {
  fold_scratch_.clear();
  for (FlightRing& r : rings_) r.drain_into(fold_scratch_);
  std::stable_sort(fold_scratch_.begin(), fold_scratch_.end(),
                   flight_record_less);
  for (const FlightRecord& rec : fold_scratch_) master_.append(rec);
  folded_records_ += fold_scratch_.size();

  const int pending = pending_.exchange(0, std::memory_order_relaxed);
  if (pending <= 0) return;
  triggers_seen_ += static_cast<std::uint64_t>(pending);
  // Primary trigger: first kIncident among the records folded at THIS
  // barrier, in canonical order — the same record on every geometry.
  const FlightRecord* trigger = nullptr;
  for (const FlightRecord& rec : fold_scratch_) {
    if (rec.kind == static_cast<std::uint32_t>(FlightKind::kIncident)) {
      trigger = &rec;
      break;
    }
  }
  // The kIncident record can be overwritten in a too-small scratch ring
  // before the barrier; the pending counter still demands a bundle.
  const FlightRecord fallback = make_flight_record(
      FlightKind::kIncident, now, "trigger-overwritten", "incident", "", 0,
      0.0);
  make_bundle(trigger != nullptr ? *trigger : fallback);
}

const FlightRecorder::Bundle* FlightRecorder::incident_now(
    sim::SimTime now, std::string_view reason, std::string_view detail) {
  FlightRing& coord = rings_.back();
  coord.set_time_hint(now);
  coord.append(make_flight_record(FlightKind::kIncident, now, reason,
                                  "incident", detail, 0, 0.0));
  request_snapshot();
  const std::size_t before = bundles_.size();
  fold_barrier(now);
  return bundles_.size() > before ? &bundles_.back() : nullptr;
}

std::string FlightRecorder::serialize_rings() const {
  std::vector<FlightRecord> snap;
  snap.reserve(master_.size());
  master_.snapshot_into(snap);

  std::string out;
  out.reserve(16 + 40 + snap.size() * sizeof(FlightRecord));
  out += "VFR1";
  put_u32(out, 1);                               // version
  put_u32(out, sizeof(FlightRecord));            // record size
  put_u32(out, 1);                               // section count
  put_i32(out, -1);                              // master section
  put_u32(out, 0);                               // reserved
  put_u64(out, master_.appended());
  put_u64(out, 0);                               // packed: head = 0
  put_u64(out, snap.size());
  std::uint64_t check = util::kFnv1aBasis;
  for (const FlightRecord& rec : snap) {
    check = util::fnv1a_add(check, &rec, sizeof rec);
    out.append(reinterpret_cast<const char*>(&rec), sizeof rec);
  }
  put_u64(out, check);  // trailer, matching the crash-path stream order
  return out;
}

std::string FlightRecorder::runtime_jsonl() const {
  std::vector<FlightRecord> snap;
  runtime_.snapshot_into(snap);
  std::string out;
  for (const FlightRecord& rec : snap) {
    json::Object o;
    o["ts"] = rec.ts;
    o["kind"] = std::string(flight_kind_name(rec.kind));
    o["name"] = std::string(rec.name);
    o["track"] = std::string(rec.track);
    o["detail"] = std::string(rec.detail);
    o["value"] = rec.value;
    o["fvalue"] = rec.fvalue;
    out += json::Value(std::move(o)).dump();
    out += '\n';
  }
  return out;
}

std::string FlightRecorder::manifest_json(const FlightRecord* trigger) const {
  json::Object m;
  m["format"] = "vdap-incident-1";
  m["bundle_seq"] = static_cast<std::int64_t>(bundles_.size()) + 1;
  m["seed"] = seed_;
  m["plan"] = plan_;
  m["config"] = config_;
  if (trigger != nullptr) {
    json::Object t;
    t["kind"] = std::string(flight_kind_name(trigger->kind));
    t["ts"] = trigger->ts;
    t["name"] = std::string(trigger->name);
    t["track"] = std::string(trigger->track);
    t["detail"] = std::string(trigger->detail);
    t["value"] = trigger->value;
    m["trigger"] = std::move(t);
  }
  json::Object rec;
  rec["master_records"] = static_cast<std::int64_t>(master_.size());
  rec["master_appended"] = master_.appended();
  rec["master_overwritten"] = master_.overwritten();
  rec["folded"] = folded_records_;
  rec["scratch_dropped"] = scratch_dropped();
  rec["triggers_seen"] = triggers_seen_;
  m["records"] = std::move(rec);

  std::vector<FlightRecord> snap;
  master_.snapshot_into(snap);
  json::Object kinds;
  for (const FlightRecord& r : snap) {
    std::string k(flight_kind_name(r.kind));
    auto it = kinds.find(k);
    if (it == kinds.end()) {
      kinds[k] = std::int64_t{1};
    } else {
      it->second = it->second.as_int() + 1;
    }
  }
  m["kinds"] = std::move(kinds);
  if (manifest_hook_) manifest_hook_(m);
  return json::Value(std::move(m)).pretty() + "\n";
}

const FlightRecorder::Bundle* FlightRecorder::make_bundle(
    const FlightRecord& trigger) {
  if (bundles_.size() >= kMaxBundles) return nullptr;
  Bundle b;
  b.id = util::format("incident-%03d-t%lld",
                      static_cast<int>(bundles_.size()) + 1,
                      static_cast<long long>(trigger.ts));
  b.manifest = manifest_json(&trigger);
  b.rings = serialize_rings();
  b.runtime = runtime_jsonl();
  if (!opts_.dir.empty()) {
    const fs::path dir = fs::path(opts_.dir) / b.id;
    std::error_code ec;
    fs::create_directories(dir, ec);
    // `dir` names the bundle on disk only when all three files landed.
    if (!ec && write_text_file((dir / "manifest.json").string(), b.manifest) &&
        write_text_file((dir / "rings.vfr").string(), b.rings) &&
        write_text_file((dir / "runtime.jsonl").string(), b.runtime)) {
      b.dir = dir.string();
    }
  }
  bundles_.push_back(std::move(b));
  return &bundles_.back();
}

// --- recording helpers ------------------------------------------------------

void flight_metric(std::string_view name, std::int64_t by) {
  FlightRing* r = internal::tls_flight;
  if (r == nullptr || !r->mirror()) return;
  r->append(make_flight_record(FlightKind::kMetric, r->now(), name, {}, {},
                               by, 0.0));
}

void flight_observe(std::string_view name, double value) {
  FlightRing* r = internal::tls_flight;
  if (r == nullptr || !r->mirror()) return;
  r->append(make_flight_record(FlightKind::kObserve, r->now(), name, {}, {},
                               0, value));
}

void flight_gauge(std::string_view name, double value) {
  FlightRing* r = internal::tls_flight;
  if (r == nullptr || !r->mirror()) return;
  r->append(make_flight_record(FlightKind::kGauge, r->now(), name, {}, {}, 0,
                               value));
}

void flight_span(FlightKind kind, sim::SimTime ts, std::string_view cat,
                 std::string_view name, std::string_view track,
                 std::int64_t value, double fvalue) {
  FlightRing* r = internal::tls_flight;
  if (r == nullptr || !r->mirror()) return;
  // Deliberately no span id: ids are per-domain counters whose values
  // depend on placement; names + timestamps are the invariant content.
  r->append(make_flight_record(kind, ts, name, track, cat, value, fvalue));
}

void flight_health(sim::SimTime ts, std::string_view service,
                   std::string_view tier, bool breach, double observed) {
  FlightRing* r = internal::tls_flight;
  if (r == nullptr) return;
  r->append(make_flight_record(FlightKind::kHealth, ts, service,
                               breach ? "breach" : "recover", tier,
                               breach ? 1 : 0, observed));
  if (breach) {
    r->append(make_flight_record(FlightKind::kIncident, ts, "slo-breach",
                                 "incident", service, 0, 0.0));
    if (r->owner() != nullptr) r->owner()->request_snapshot();
  }
}

void flight_fault(sim::SimTime ts, std::string_view name,
                  std::string_view target, std::string_view kind,
                  bool begin) {
  FlightRing* r = internal::tls_flight;
  if (r == nullptr) return;
  r->append(make_flight_record(FlightKind::kFault, ts, name, target, kind,
                               begin ? 1 : 0, 0.0));
  if (begin) {
    r->append(make_flight_record(FlightKind::kIncident, ts, "fault",
                                 "incident", name, 0, 0.0));
    if (r->owner() != nullptr) r->owner()->request_snapshot();
  }
}

void incident(std::string_view reason, std::string_view detail) {
  FlightRing* r = internal::tls_flight;
  if (r == nullptr) return;
  r->append(make_flight_record(FlightKind::kIncident, r->now(), reason,
                               "incident", detail, 0, 0.0));
  if (r->owner() != nullptr) r->owner()->request_snapshot();
}

// --- parse-back -------------------------------------------------------------

FlightParse parse_flight_rings(std::string_view bytes) {
  FlightParse p;
  const auto fail = [&p](std::string msg) -> FlightParse& {
    p.ok = false;
    p.error = std::move(msg);
    p.sections.clear();
    return p;
  };

  std::size_t off = 0;
  const auto remaining = [&] { return bytes.size() - off; };
  const auto read_u32 = [&] {
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + off, sizeof v);
    off += sizeof v;
    return v;
  };
  const auto read_u64 = [&] {
    std::uint64_t v;
    std::memcpy(&v, bytes.data() + off, sizeof v);
    off += sizeof v;
    return v;
  };

  if (remaining() < 16) return fail("truncated header");
  if (bytes.substr(0, 4) != "VFR1") return fail("bad magic (not a VFR1 file)");
  off = 4;
  p.version = read_u32();
  if (p.version != 1) {
    return fail(util::format("unsupported version %u", p.version));
  }
  const std::uint32_t record_size = read_u32();
  if (record_size != sizeof(FlightRecord)) {
    return fail(util::format("record size %u != %zu (bit flip?)", record_size,
                             sizeof(FlightRecord)));
  }
  const std::uint32_t section_count = read_u32();
  if (section_count > 64) {
    return fail(util::format("hostile section count %u", section_count));
  }

  for (std::uint32_t s = 0; s < section_count; ++s) {
    if (remaining() < 32) return fail("truncated section header");
    FlightSection sec;
    sec.domain = static_cast<std::int32_t>(read_u32());
    read_u32();  // reserved
    sec.appended = read_u64();
    const std::uint64_t head = read_u64();
    const std::uint64_t count = read_u64();
    if (count > (1u << 22)) {
      return fail(util::format("hostile record count %llu",
                               static_cast<unsigned long long>(count)));
    }
    // Budget check BEFORE any allocation: hostile counts cannot OOM.
    const std::uint64_t body = count * sizeof(FlightRecord);
    if (remaining() < body + 8) return fail("truncated record data");
    if (head >= std::max<std::uint64_t>(count, 1)) {
      return fail("corrupt head index");
    }
    sec.head = head;

    const std::uint64_t check = util::fnv1a_add(
        util::kFnv1aBasis, bytes.data() + off, static_cast<std::size_t>(body));
    const char* data = bytes.data() + off;
    off += static_cast<std::size_t>(body);
    const std::uint64_t trailer = read_u64();
    if (trailer != check) {
      return fail("section checksum mismatch (bit flip?)");
    }

    sec.records.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      // Crash sections are raw storage order; rotate to oldest-first.
      const std::uint64_t slot = (head + i) % std::max<std::uint64_t>(count, 1);
      FlightRecord rec;
      std::memcpy(&rec, data + slot * sizeof rec, sizeof rec);
      if (rec.kind >= kFlightKindCount) {
        // A slot torn by the crash handler's racy read: skip, count.
        ++sec.corrupt_skipped;
        continue;
      }
      rec.name[sizeof rec.name - 1] = '\0';
      rec.track[sizeof rec.track - 1] = '\0';
      rec.detail[sizeof rec.detail - 1] = '\0';
      sec.records.push_back(rec);
    }
    p.sections.push_back(std::move(sec));
  }
  if (remaining() != 0) return fail("trailing bytes after last section");
  p.ok = true;
  return p;
}

std::string incident_report(const json::Value& manifest,
                            const FlightParse& rings) {
  std::string out;
  out += "incident report\n";
  out += util::format("  plan: %s  seed: %lld\n",
                      manifest.get_string("plan", "?").c_str(),
                      static_cast<long long>(manifest.get_int("seed", 0)));
  if (const json::Value* t = manifest.find("trigger")) {
    out += util::format("  trigger: %s \"%s\" (%s) at t=%.3fs\n",
                        t->get_string("kind", "?").c_str(),
                        t->get_string("name", "").c_str(),
                        t->get_string("detail", "").c_str(),
                        sim::to_seconds(t->get_int("ts", 0)));
  }
  if (manifest.get_bool("crash", false)) {
    out += util::format("  crash: signal %lld (bundle written by the fatal-"
                        "signal handler; rings are raw snapshots)\n",
                        static_cast<long long>(manifest.get_int("signal", 0)));
  }
  if (const json::Value* rec = manifest.find("records")) {
    out += util::format(
        "  records: master=%lld folded=%lld scratch_dropped=%lld\n",
        static_cast<long long>(rec->get_int("master_records", 0)),
        static_cast<long long>(rec->get_int("folded", 0)),
        static_cast<long long>(rec->get_int("scratch_dropped", 0)));
  }

  std::vector<FlightRecord> all;
  std::uint64_t corrupt = 0;
  for (const FlightSection& sec : rings.sections) {
    all.insert(all.end(), sec.records.begin(), sec.records.end());
    corrupt += sec.corrupt_skipped;
  }
  std::stable_sort(all.begin(), all.end(), flight_record_less);

  std::map<std::string, std::int64_t> by_kind;
  for (const FlightRecord& r : all) {
    ++by_kind[std::string(flight_kind_name(r.kind))];
  }
  util::TextTable kinds("records by kind");
  kinds.set_header({"kind", "count"});
  for (const auto& [k, n] : by_kind) {
    kinds.add_row({k, util::format("%lld", static_cast<long long>(n))});
  }
  if (corrupt > 0) {
    kinds.add_row({"(corrupt, skipped)",
                   util::format("%llu",
                                static_cast<unsigned long long>(corrupt))});
  }
  out += '\n';
  out += kinds.to_string();

  // Blame: kHealth records carry the critical-path tier attribution the
  // SLO evaluator computed (§6d); kFault records carry their target.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> blame;
  for (const FlightRecord& r : all) {
    if (r.kind == static_cast<std::uint32_t>(FlightKind::kHealth)) {
      auto& [breaches, events] = blame["tier " + std::string(r.detail)];
      events += 1;
      if (r.value != 0) breaches += 1;
    } else if (r.kind == static_cast<std::uint32_t>(FlightKind::kFault)) {
      auto& [begins, events] = blame["fault " + std::string(r.track)];
      events += 1;
      if (r.value != 0) begins += 1;
    }
  }
  if (!blame.empty()) {
    util::TextTable bt("blame");
    bt.set_header({"cause", "onsets", "events"});
    for (const auto& [who, counts] : blame) {
      bt.add_row({who,
                  util::format("%lld", static_cast<long long>(counts.first)),
                  util::format("%lld",
                               static_cast<long long>(counts.second))});
    }
    out += '\n';
    out += bt.to_string();
  }

  util::TextTable tl("timeline");
  tl.set_header({"t_ms", "kind", "track", "name", "detail", "blame", "value"});
  for (const FlightRecord& r : all) {
    std::string blamed;
    if (r.kind == static_cast<std::uint32_t>(FlightKind::kHealth)) {
      blamed = r.detail;
    } else if (r.kind == static_cast<std::uint32_t>(FlightKind::kFault)) {
      blamed = r.track;
    }
    std::string value;
    if (r.fvalue != 0.0) {
      value = util::TextTable::num(r.fvalue, 3);
    } else if (r.value != 0) {
      value = util::format("%lld", static_cast<long long>(r.value));
    }
    tl.add_row({util::TextTable::num(sim::to_millis(r.ts), 3),
                std::string(flight_kind_name(r.kind)), r.track, r.name,
                r.detail, blamed, value});
  }
  out += '\n';
  out += tl.to_string();
  return out;
}

std::string render_incident_dir(const std::string& dir, std::string* error) {
  const auto set_error = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
  };
  const auto slurp = [](const fs::path& p, std::string* out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
  };

  std::string manifest_bytes;
  if (!slurp(fs::path(dir) / "manifest.json", &manifest_bytes)) {
    set_error("missing manifest.json in " + dir);
    return "";
  }
  std::optional<json::Value> manifest = json::try_parse(manifest_bytes);
  if (!manifest.has_value()) {
    set_error("manifest.json: malformed JSON (truncated bundle?)");
    return "";
  }
  std::string ring_bytes;
  if (!slurp(fs::path(dir) / "rings.vfr", &ring_bytes)) {
    set_error("missing rings.vfr in " + dir);
    return "";
  }
  FlightParse rings = parse_flight_rings(ring_bytes);
  if (!rings.ok) {
    set_error("rings.vfr: " + rings.error);
    return "";
  }
  return incident_report(*manifest, rings);
}

// --- crash dump -------------------------------------------------------------

namespace {

constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
constexpr int kNumCrashSignals = 5;

// All fields are written at arm time (before any signal can dispatch to
// the handler) and only read afterwards; the handler itself touches
// nothing but these buffers and the recorder's preallocated rings.
struct CrashState {
  std::atomic<FlightRecorder*> recorder{nullptr};
  std::atomic<int> busy{0};
  std::string manifest_path;
  std::string rings_path;
  std::string manifest_head;  // '{"crash":true,"signal":'
  std::string manifest_tail;  // ',...deterministic context...}\n'
  struct sigaction old_actions[kNumCrashSignals];
  bool armed = false;
};
CrashState g_crash;

void write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;  // best effort: a short bundle still parses up to the cut
    }
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

int format_int(char* buf, long v) {
  char tmp[24];
  int n = 0;
  if (v < 0) v = -v;  // signals are positive; belt and braces
  if (v == 0) tmp[n++] = '0';
  while (v > 0 && n < 24) {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
  for (int i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void crash_write_section(int fd, const FlightRing& ring, std::int32_t domain) {
  const std::uint64_t appended = ring.raw_appended();
  const std::uint64_t cap = ring.capacity();
  const std::uint64_t count = appended < cap ? appended : cap;
  const std::uint64_t head = (cap != 0 && appended >= cap) ? appended % cap : 0;
  write_all(fd, &domain, sizeof domain);
  const std::uint32_t reserved = 0;
  write_all(fd, &reserved, sizeof reserved);
  write_all(fd, &appended, sizeof appended);
  write_all(fd, &head, sizeof head);
  write_all(fd, &count, sizeof count);
  // Stream each (possibly racing) slot exactly once: copy to the stack,
  // fold it into the checksum, write it. The checksum is a TRAILER so
  // this single pass is self-consistent even when another thread is
  // mid-append — a torn slot is checksum-valid garbage the parser skips
  // by kind validation.
  std::uint64_t check = util::kFnv1aBasis;
  for (std::uint64_t i = 0; i < count; ++i) {
    FlightRecord rec;
    std::memcpy(&rec, ring.raw_data() + i, sizeof rec);
    check = util::fnv1a_add(check, &rec, sizeof rec);
    write_all(fd, &rec, sizeof rec);
  }
  write_all(fd, &check, sizeof check);
}

void flight_crash_handler(int sig) {
  FlightRecorder* rec = g_crash.recorder.load(std::memory_order_relaxed);
  if (rec != nullptr && g_crash.busy.exchange(1) == 0) {
    int fd = ::open(g_crash.manifest_path.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      write_all(fd, g_crash.manifest_head.data(), g_crash.manifest_head.size());
      char num[24];
      const int n = format_int(num, sig);
      write_all(fd, num, static_cast<std::size_t>(n));
      write_all(fd, g_crash.manifest_tail.data(), g_crash.manifest_tail.size());
      ::close(fd);
    }
    fd = ::open(g_crash.rings_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                0644);
    if (fd >= 0) {
      write_all(fd, "VFR1", 4);
      const std::uint32_t version = 1;
      const std::uint32_t record_size = sizeof(FlightRecord);
      const std::uint32_t sections =
          static_cast<std::uint32_t>(rec->domains()) + 2;
      write_all(fd, &version, sizeof version);
      write_all(fd, &record_size, sizeof record_size);
      write_all(fd, &sections, sizeof sections);
      for (int i = 0; i < rec->domains(); ++i) {
        crash_write_section(fd, rec->ring(i), i);
      }
      crash_write_section(fd, rec->master_ring(), -1);
      crash_write_section(fd, rec->runtime_ring(), -2);
      ::close(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void FlightRecorder::arm_crash_dump() {
  if (opts_.dir.empty()) {
    throw std::invalid_argument(
        "FlightRecorder::arm_crash_dump: Options::dir must be set");
  }
  disarm_crash_dump();
  const fs::path dir = fs::path(opts_.dir) / "incident-crash";
  fs::create_directories(dir);
  g_crash.manifest_path = (dir / "manifest.json").string();
  g_crash.rings_path = (dir / "rings.vfr").string();
  g_crash.manifest_head = "{\"crash\":true,\"signal\":";
  json::Object rest;
  rest["format"] = "vdap-incident-1";
  rest["seed"] = seed_;
  rest["plan"] = plan_;
  rest["config"] = config_;
  std::string rest_json = json::Value(std::move(rest)).dump();
  // '{"format":...}' -> ',"format":...}\n' appended after the signal.
  rest_json.front() = ',';
  g_crash.manifest_tail = rest_json + "\n";
  g_crash.busy.store(0, std::memory_order_relaxed);
  g_crash.recorder.store(this, std::memory_order_release);
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = &flight_crash_handler;
  sigemptyset(&action.sa_mask);
  for (int i = 0; i < kNumCrashSignals; ++i) {
    ::sigaction(kCrashSignals[i], &action, &g_crash.old_actions[i]);
  }
  g_crash.armed = true;
}

void FlightRecorder::disarm_crash_dump() {
  if (!g_crash.armed) return;
  for (int i = 0; i < kNumCrashSignals; ++i) {
    ::sigaction(kCrashSignals[i], &g_crash.old_actions[i], nullptr);
  }
  g_crash.recorder.store(nullptr, std::memory_order_release);
  g_crash.armed = false;
}

FlightRecorder::~FlightRecorder() {
  if (g_crash.recorder.load(std::memory_order_relaxed) == this) {
    disarm_crash_dump();
  }
}

}  // namespace vdap::telemetry
