// Flight recorder: always-on, fixed-memory black-box diagnostics
// (DESIGN.md §6i).
//
// A FlightRecorder owns one FlightRing per telemetry domain (one per
// shard plus the coordinator, mirroring telemetry::DomainSet) plus a
// master ring the scratch rings fold into at epoch barriers and a
// wall-clock runtime ring. Appends are O(1) stores into preallocated
// slots — no allocation, no locking, no branches beyond the
// capacity check — cheap enough to leave on even when full capture is
// off.
//
// Determinism contract: FlightRecord is a 104-byte POD with zero
// padding, built from a memset-zeroed struct, so the canonical content
// order (ts first, then memcmp of the whole record) is a total order on
// record *content*. fold_barrier() drains every scratch ring while the
// shards are quiesced and stable-sorts the drained records into the
// master ring — the master content is a pure function of the record
// multiset, independent of which shard recorded what. Sim-clock-
// triggered incident bundles (manifest.json + rings.vfr) are therefore
// byte-identical per (seed, plan) across the shard × thread matrix,
// provided no scratch ring overflowed between barriers
// (scratch_dropped() == 0; the flight test suite asserts it).
// runtime.jsonl inside a bundle is the wall-clock plane (per-shard
// busy/wait snapshots) and is excluded from the byte-identity contract,
// like shards.jsonl in §6h.
//
// Incident triggers: HealthController SLO breach, FaultInjector
// activation, the explicit telemetry::incident() API (all three append
// a kIncident record to the calling thread's ring and bump a pending
// counter serviced at the next quiesced barrier), and fatal signals —
// arm_crash_dump() installs an async-signal-safe handler that only
// write()s pre-serialized manifest halves and streams the raw ring
// pages (section checksum as a trailer so each racy slot is read
// exactly once).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "util/json.hpp"

namespace vdap::telemetry {

enum class FlightKind : std::uint32_t {
  kMetric = 0,   // counter increment (value = delta)
  kGauge,        // gauge set (fvalue)
  kObserve,      // histogram sample (fvalue)
  kSpanBegin,    // async span open (detail = category)
  kSpanEnd,      // async span close
  kComplete,     // complete slice (value = duration µs)
  kInstant,      // instant event
  kCounter,      // counter-series sample (fvalue)
  kHealth,       // SLO breach/recovery (detail = implicated tier)
  kFault,        // fault window edge (track = target, value = 1 begin / 0 end)
  kIncident,     // incident trigger (name = reason)
  kRuntime,      // shard-runtime snapshot (wall-clock plane)
};
constexpr std::uint32_t kFlightKindCount = 12;

/// Short stable label ("metric", "span-begin", ...) for reports.
std::string_view flight_kind_name(std::uint32_t kind);

/// One flight-recorder slot. Fixed 104 bytes, no padding, trivially
/// copyable — the layout IS the rings.vfr wire format (version VFR1).
struct FlightRecord {
  std::int64_t ts;      // µs on the sim clock (runtime records: epoch end)
  std::int64_t value;   // integer payload (delta, duration, flags)
  double fvalue;        // floating payload (sample, gauge, busy seconds)
  std::uint32_t kind;   // FlightKind
  char name[36];        // NUL-terminated, truncated
  char track[20];
  char detail[20];
};
static_assert(sizeof(FlightRecord) == 104, "rings.vfr wire layout");
static_assert(std::is_trivially_copyable_v<FlightRecord>);

/// Builds a record from a zeroed struct (so padding-free memcmp is a
/// deterministic content comparison). Strings are truncated to fit.
FlightRecord make_flight_record(FlightKind kind, sim::SimTime ts,
                                std::string_view name, std::string_view track,
                                std::string_view detail, std::int64_t value,
                                double fvalue);

/// Canonical content order: ts first, then memcmp of the whole record —
/// the same total-order idea DomainSet::merge_epoch uses for trace
/// events. Identical records are content-twins, so stable_sort output
/// depends only on the record multiset.
bool flight_record_less(const FlightRecord& a, const FlightRecord& b);

class FlightRecorder;

/// A fixed-capacity overwrite-oldest ring of FlightRecords. Capacity 0
/// means disabled: append() is a no-op and no accounting is kept.
/// Single-writer (the binding discipline of telemetry domains); the
/// crash handler tolerates racy reads because parse-back is hardened.
class FlightRing {
 public:
  FlightRing() = default;
  explicit FlightRing(std::size_t capacity) { reset_capacity(capacity); }

  /// (Re)allocates storage. Not for use while bound to a thread.
  void reset_capacity(std::size_t capacity);

  bool enabled() const { return !slots_.empty(); }
  std::size_t capacity() const { return slots_.size(); }

  /// O(1), allocation-free hot-path append.
  void append(const FlightRecord& r) {
    if (slots_.empty()) return;
    slots_[static_cast<std::size_t>(appended_ % slots_.size())] = r;
    ++appended_;
  }

  /// Records appended since construction / last drain.
  std::uint64_t appended() const { return appended_; }
  /// Records currently held (min(appended, capacity)).
  std::size_t size() const;
  /// Records overwritten since the last drain (appended - size).
  std::uint64_t overwritten() const;

  // --- timestamps ---------------------------------------------------------
  /// Points the ring at a live sim clock (Simulator::now_ptr()); metric
  /// mirrors that have no caller timestamp read it.
  void set_clock(const sim::SimTime* clock) { clock_ = clock; }
  /// Fallback timestamp for rings with no clock (the coordinator ring is
  /// hinted with the epoch end at each barrier).
  void set_time_hint(sim::SimTime t) { hint_ = t; }
  sim::SimTime now() const { return clock_ != nullptr ? *clock_ : hint_; }

  // --- recorder wiring ----------------------------------------------------
  void set_owner(FlightRecorder* owner) { owner_ = owner; }
  FlightRecorder* owner() const { return owner_; }
  /// Whether metric deltas and trace events mirror into this ring.
  bool mirror() const { return mirror_; }

  // --- barrier / export side ----------------------------------------------
  /// Copies held records oldest-first (no reset).
  void snapshot_into(std::vector<FlightRecord>& out) const;
  /// Copies held records oldest-first, then resets the ring,
  /// accumulating overwritten records into dropped_total().
  void drain_into(std::vector<FlightRecord>& out);
  /// Records lost to overwrite across all drains so far.
  std::uint64_t dropped_total() const { return dropped_total_; }
  /// Records handed out by drain_into across the ring's lifetime.
  std::uint64_t drained_total() const { return drained_total_; }

  // --- crash-handler raw access (async-signal-safe reads) -----------------
  const FlightRecord* raw_data() const { return slots_.data(); }
  std::uint64_t raw_appended() const { return appended_; }

 private:
  friend class FlightRecorder;

  std::vector<FlightRecord> slots_;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_total_ = 0;
  std::uint64_t drained_total_ = 0;
  const sim::SimTime* clock_ = nullptr;
  sim::SimTime hint_ = 0;
  FlightRecorder* owner_ = nullptr;
  bool mirror_ = true;
};

/// The recorder: scratch rings (one per domain), the canonical master
/// ring they fold into, the wall-clock runtime ring, trigger servicing,
/// bundle snapshots, and the crash-dump path.
class FlightRecorder {
 public:
  /// Scratch rings hold 4096 records each, and a run keeps at most 4
  /// bundles; further triggers only count (flight.cpp).
  struct Options {
    /// Mirror metric deltas and trace events into the rings (events fire
    /// only while capture is on: their sites are guarded by
    /// telemetry::on()). run_fleet turns this off: its capture plane is
    /// only thread-invariant at fixed shards, and the flight bundle must
    /// stay invariant across the full matrix.
    bool mirror = true;
    /// Bundle output directory; empty keeps bundles in memory only.
    std::string dir;
  };

  /// One incident snapshot. manifest + rings are the deterministic
  /// plane; runtime is wall-clock diagnostics.
  struct Bundle {
    std::string id;        // "incident-NNN-t<trigger µs>"
    std::string manifest;  // manifest.json bytes
    std::string rings;     // rings.vfr bytes (VFR1, master section)
    std::string runtime;   // runtime.jsonl bytes (wall plane)
    // Written path; "" when in-memory only or when writing any of the
    // three files failed.
    std::string dir;
  };

  /// `domains` scratch rings (shards + coordinator when driven by
  /// sim::ShardedSimulator; index nshards is the coordinator).
  explicit FlightRecorder(int domains);  // default Options
  FlightRecorder(int domains, Options opts);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  int domains() const { return static_cast<int>(rings_.size()); }
  FlightRing& ring(int domain) {
    return rings_[static_cast<std::size_t>(domain)];
  }
  FlightRing& master_ring() { return master_; }
  const FlightRing& master_ring() const { return master_; }
  FlightRing& runtime_ring() { return runtime_; }
  const Options& options() const { return opts_; }

  // --- manifest context ----------------------------------------------------
  void set_context(std::uint64_t seed, std::string plan, json::Value config);
  /// Called while building each manifest (shards quiesced); adds
  /// deterministic run state: SLO evaluator summaries, anomaly flags.
  void set_manifest_hook(std::function<void(json::Object&)> hook);

  // --- triggers ------------------------------------------------------------
  /// Any thread; serviced at the next fold_barrier. The caller also
  /// appends a kIncident record to its bound ring so the barrier can
  /// name the primary trigger.
  void request_snapshot() {
    pending_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Coordinator only, shards quiesced: drains every scratch ring into
  /// the master ring in canonical content order, then snapshots a
  /// bundle if any trigger fired since the previous barrier.
  void fold_barrier(sim::SimTime now);

  /// Explicit immediate incident from a quiesced/single-threaded
  /// context: records the trigger, folds, and snapshots now.
  const Bundle* incident_now(sim::SimTime now, std::string_view reason,
                             std::string_view detail = {});

  // --- results -------------------------------------------------------------
  const std::vector<Bundle>& bundles() const { return bundles_; }
  /// Triggers observed (including those past the bundle cap).
  std::uint64_t triggers_seen() const { return triggers_seen_; }
  /// Records folded into the master ring across the run.
  std::uint64_t folded_records() const { return folded_records_; }
  /// Sum of scratch-ring drops; byte-identity across the shard × thread
  /// matrix is guaranteed only when this is 0.
  std::uint64_t scratch_dropped() const;

  /// VFR1 serialization of the master ring (packed, canonical order).
  std::string serialize_rings() const;
  /// Wall-clock plane: one JSON line per runtime record.
  std::string runtime_jsonl() const;
  /// Deterministic manifest (trigger may be nullptr).
  std::string manifest_json(const FlightRecord* trigger) const;

  // --- crash dump ----------------------------------------------------------
  /// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers that
  /// write() a best-effort bundle (options().dir + "/incident-crash")
  /// from the raw rings, then re-raise. Requires a non-empty dir; one
  /// recorder may be armed at a time (later arms win).
  void arm_crash_dump();
  static void disarm_crash_dump();

 private:
  const Bundle* make_bundle(const FlightRecord& trigger);

  Options opts_;
  std::vector<FlightRing> rings_;
  FlightRing master_;
  FlightRing runtime_;
  std::atomic<int> pending_{0};
  std::uint64_t triggers_seen_ = 0;
  std::uint64_t folded_records_ = 0;
  std::vector<FlightRecord> fold_scratch_;
  std::vector<Bundle> bundles_;
  std::uint64_t seed_ = 0;
  std::string plan_;
  json::Value config_;
  std::function<void(json::Object&)> manifest_hook_;
};

// --- recording helpers (flight plane; independent of capture state) --------

/// Mirrors a counter increment into the calling thread's bound ring.
void flight_metric(std::string_view name, std::int64_t by);
/// Mirrors a histogram sample.
void flight_observe(std::string_view name, double value);
/// Mirrors a gauge set.
void flight_gauge(std::string_view name, double value);
/// Mirrors a trace event (called by Tracer's typed methods).
void flight_span(FlightKind kind, sim::SimTime ts, std::string_view cat,
                 std::string_view name, std::string_view track,
                 std::int64_t value, double fvalue);
/// Records an SLO health edge and, on a breach, raises an incident
/// trigger (when the ring opted in). NOT gated by telemetry::on().
void flight_health(sim::SimTime ts, std::string_view service,
                   std::string_view tier, bool breach, double observed);
/// Records a fault-window edge and, on a begin, raises an incident
/// trigger (when the ring opted in).
void flight_fault(sim::SimTime ts, std::string_view name,
                  std::string_view target, std::string_view kind, bool begin);
/// Explicit incident API: records a kIncident on the calling thread's
/// ring and requests a snapshot at the next barrier. No-op when no
/// flight ring is bound.
void incident(std::string_view reason, std::string_view detail = {});

// --- parse-back ------------------------------------------------------------

/// One section of a rings.vfr file, rotated to oldest-first order.
struct FlightSection {
  int domain = 0;  // 0..K-1 scratch, -1 master, -2 runtime
  std::uint64_t appended = 0;
  std::uint64_t head = 0;
  std::uint64_t corrupt_skipped = 0;  // torn/invalid-kind slots dropped
  std::vector<FlightRecord> records;
};

struct FlightParse {
  bool ok = false;
  std::string error;  // clean diagnostic when !ok
  std::uint32_t version = 0;
  std::vector<FlightSection> sections;
};

/// Hardened VFR1 parser: every truncation, hostile count, or bit flip
/// yields ok=false with a diagnostic — counts are validated against the
/// remaining byte budget *before* any allocation, so hostile headers
/// cannot OOM. Torn records inside a checksum-valid crash section are
/// skipped and counted, not fatal.
FlightParse parse_flight_rings(std::string_view bytes);

/// Renders the blame-annotated incident report (manifest summary, kind
/// counts, blame table from kHealth tier attribution + kFault targets,
/// full timeline).
std::string incident_report(const json::Value& manifest,
                            const FlightParse& rings);

/// Loads `dir`/manifest.json + rings.vfr and renders the report.
/// Returns "" and sets *error on any malformed input.
std::string render_incident_dir(const std::string& dir, std::string* error);

}  // namespace vdap::telemetry
