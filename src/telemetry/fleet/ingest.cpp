#include "telemetry/fleet/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <string_view>

#include "telemetry/prof/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace vdap::telemetry::fleet {

namespace {

// MAD detection (DESIGN.md §6g). A vehicle whose window mean scores at
// least kMadThreshold (modified z-score) is flagged, and clears once it
// scores below kMadThreshold * kClearFactor (hysteresis), so one sick
// vehicle raises one anomaly, not one per barrier.
constexpr double kMadThreshold = 3.5;
constexpr double kClearFactor = 0.7;
/// Detection needs at least this many vehicles reporting the metric.
constexpr std::size_t kMinVehicles = 3;
/// Trailing window, ending at the watermark, whose per-vehicle means are
/// compared.
constexpr sim::SimDuration kDetectWindow = sim::seconds(15);
/// Window-ring slot width.
constexpr sim::SimDuration kDetectPeriod = sim::seconds(1);
/// Slots per ring: the detect window plus inclusive-edge slack.
constexpr std::int64_t kRingSpan = kDetectWindow / kDetectPeriod + 2;
/// Metric-name prefix detection skips. Location fixes are lookup data for
/// `near` queries — an outlying coordinate is geometry, not sickness.
constexpr std::string_view kDetectExclude = "loc.";
/// Recent sequence numbers remembered per vehicle for duplicate
/// detection; older ones count as already seen.
constexpr std::uint64_t kSeqWindow = 4096;

double median_of(std::vector<double> values) {
  // values non-empty, by caller contract.
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool is_breach_kind(const std::string& kind) {
  return kind.find("breach") != std::string::npos;
}

/// Calls visit(element) for every element of the [first, last) ranges in
/// `runs` in ascending name(element) order: a K-way heap merge, O(n log K).
/// Each run must already be in name order and names must be unique across
/// runs — a vehicle lives on exactly one shard.
template <typename It, typename Name, typename Visit>
void merge_by_name(std::vector<std::pair<It, It>> runs, Name name,
                   Visit visit) {
  std::erase_if(runs, [](const auto& run) { return run.first == run.second; });
  auto later = [&name](const auto& a, const auto& b) {
    return name(*b.first) < name(*a.first);
  };
  std::make_heap(runs.begin(), runs.end(), later);
  while (!runs.empty()) {
    std::pop_heap(runs.begin(), runs.end(), later);
    auto& run = runs.back();
    visit(*run.first);
    if (++run.first == run.second) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), later);
    }
  }
}

/// [begin, end) of every run in `runs`, for merge_by_name.
template <typename Run>
auto spans(std::vector<Run>& runs) {
  std::vector<std::pair<typename Run::iterator, typename Run::iterator>> out;
  out.reserve(runs.size());
  for (Run& run : runs) out.emplace_back(run.begin(), run.end());
  return out;
}

/// One vehicle's `range` row plus the sketch its quantiles came from. The
/// quantile calls leave the sketch sorted, and that sorted sketch is what
/// the fleet fold must merge (Histogram::merge thins by position).
struct RangeRow {
  QueryVehicleRow row;
  util::Histogram sketch;
};

/// The vehicle's range row, or nothing when it never reported the metric.
std::optional<RangeRow> range_row(const std::string& name,
                                  const IngestShard::Vehicle& v,
                                  const Query& query) {
  const ColumnarSeries* series = v.store.series(query.metric);
  if (series == nullptr) return std::nullopt;
  RangeRow out{QueryVehicleRow{}, series->sketch(query.from, query.to)};
  out.row.vehicle = name;
  out.row.agg = series->range(query.from, query.to);
  out.row.p50 = out.sketch.p50();
  out.row.p95 = out.sketch.p95();
  out.row.p99 = out.sketch.p99();
  return out;
}

/// The vehicle's `near` hit, or nothing when it has no fresh fix within
/// the radius.
std::optional<QueryNearHit> near_hit(const std::string& name,
                                     const IngestShard::Vehicle& v,
                                     const Query& query) {
  const ColumnarSeries* sx = v.store.series("loc.x");
  const ColumnarSeries* sy = v.store.series("loc.y");
  if (sx == nullptr || sy == nullptr) return std::nullopt;
  auto fx = sx->last_at_or_before(query.at);
  auto fy = sy->last_at_or_before(query.at);
  if (!fx.has_value() || !fy.has_value()) return std::nullopt;
  const sim::SimTime horizon =
      query.at > query.within ? query.at - query.within : 0;
  if (fx->first < horizon || fy->first < horizon) {
    return std::nullopt;  // stale fix
  }
  const double dx = fx->second - query.x;
  const double dy = fy->second - query.y;
  const double dist = std::sqrt(dx * dx + dy * dy);
  if (dist > query.radius) return std::nullopt;
  QueryNearHit hit;
  hit.vehicle = name;
  hit.x = fx->second;
  hit.y = fy->second;
  hit.dist = dist;
  hit.at = std::max(fx->first, fy->first);
  return hit;
}

IngestOptions clamped(IngestOptions o) {
  o.shards = std::max(o.shards, 1);
  o.threads = std::clamp(o.threads, 1, o.shards);
  return o;
}

}  // namespace

IngestShard::IngestShard(const IngestOptions& options)
    : block_(options.block) {}

bool IngestShard::ingest_line(std::string_view line, std::string* error) {
  PROF_SCOPE("ingest/decode");
  std::optional<WireFrame> frame = wire_decode(line, error);
  if (!frame.has_value()) {
    ++decode_errors_;
    return false;
  }
  return ingest(*frame);
}

bool IngestShard::ingest(const WireFrame& frame) {
  Vehicle* v = nullptr;
  if (auto it = vehicles_.find(frame.vehicle); it != vehicles_.end()) {
    v = &it->second;
  } else {
    v = &vehicles_
             .emplace(frame.vehicle, Vehicle{ColumnarStore(block_, &pool_)})
             .first->second;
  }

  // Duplicate/reorder/loss accounting by sequence number. Sequence
  // numbers at or below the remembered window count as already seen: the
  // shipper retries in order, so anything that far behind has been seen.
  const std::uint64_t floor_seq =
      v->max_seq > kSeqWindow ? v->max_seq - kSeqWindow : 0;
  if (frame.seq <= floor_seq || v->seen.count(frame.seq) > 0) {
    ++v->duplicates;
    ++duplicates_;
    return false;
  }
  if (frame.seq < v->max_seq) {
    ++v->reordered;
    ++reordered_;
  }
  v->seen.insert(frame.seq);
  v->max_seq = std::max(v->max_seq, frame.seq);
  while (!v->seen.empty() && *v->seen.begin() + kSeqWindow < v->max_seq) {
    v->seen.erase(v->seen.begin());
  }
  ++v->frames;
  ++frames_;
  watermark_ = std::max(watermark_, frame.created);

  for (const auto& [name, delta] : frame.counters) v->counters[name] += delta;
  for (const WireHealthEvent& ev : frame.events) {
    ++v->health_events;
    if (is_breach_kind(ev.kind)) ++v->breaches;
  }
  for (const auto& [metric, samples] : frame.samples) {
    if (samples.empty()) continue;
    WindowRing* ring = &v->rings[metric];
    for (const WireSample& s : samples) {
      if (v->store.observe(metric, s.first, s.second)) {
        ++samples_;
        ring_add(ring, s.first, s.second);
      }
      watermark_ = std::max(watermark_, s.first);
    }
    dirty_.insert(metric);
  }
  return true;
}

void IngestShard::ring_add(WindowRing* ring, sim::SimTime at, double value) {
  constexpr std::int64_t span = kRingSpan;
  if (ring->slots.empty()) ring->slots.assign(span, {0, 0.0});
  const std::int64_t slot = at / kDetectPeriod;
  if (ring->max_slot < 0) ring->max_slot = slot;
  if (slot > ring->max_slot) {
    const std::int64_t steps = std::min(slot - ring->max_slot, span);
    for (std::int64_t k = 1; k <= steps; ++k) {
      ring->slots[static_cast<std::size_t>((ring->max_slot + k) % span)] = {
          0, 0.0};
    }
    ring->max_slot = slot;
  }
  if (slot <= ring->max_slot - span) {
    ++ring_late_;  // older than the covered window; columnar store has it
    return;
  }
  auto& cell = ring->slots[static_cast<std::size_t>(slot % span)];
  ++cell.first;
  cell.second += value;
}

std::set<std::string> IngestShard::take_dirty() {
  std::set<std::string> out;
  out.swap(dirty_);
  return out;
}

void IngestShard::collect_means(
    const std::string& metric, sim::SimTime from, sim::SimTime to,
    std::vector<std::pair<const std::string*, double>>* out) const {
  constexpr sim::SimDuration period = kDetectPeriod;
  constexpr std::int64_t span = kRingSpan;
  for (const auto& [name, v] : vehicles_) {
    auto it = v.rings.find(metric);
    if (it == v.rings.end() || it->second.max_slot < 0) continue;
    const WindowRing& ring = it->second;
    std::uint64_t count = 0;
    double sum = 0.0;
    // Oldest → newest, fixed fold order: include slots [s·P, s·P + P)
    // intersecting [from, to].
    for (std::int64_t s = std::max<std::int64_t>(ring.max_slot - span + 1, 0);
         s <= ring.max_slot; ++s) {
      if (s * period + period <= from || s * period > to) continue;
      const auto& cell = ring.slots[static_cast<std::size_t>(s % span)];
      count += cell.first;
      sum += cell.second;
    }
    if (count > 0) {
      out->emplace_back(&name, sum / static_cast<double>(count));
    }
  }
}

std::uint64_t IngestShard::lost_frames() const {
  std::uint64_t lost = 0;
  for (const auto& [name, v] : vehicles_) {
    if (v.max_seq > v.frames) lost += v.max_seq - v.frames;
  }
  return lost;
}

ShardedIngestBackend::ShardedIngestBackend(IngestOptions options)
    : opts_(clamped(options)) {
  shards_.reserve(static_cast<std::size_t>(opts_.shards));
  for (int s = 0; s < opts_.shards; ++s) {
    shards_.push_back(std::make_unique<IngestShard>(opts_));
  }
  barrier_stats_.resize(shards_.size());
  if (opts_.threads > 1) {
    pool_ = std::make_unique<sim::ThreadPool>(opts_.threads);
  }
}

int ShardedIngestBackend::threads() const { return opts_.threads; }

int ShardedIngestBackend::shard_of(std::string_view vehicle_key) const {
  return static_cast<int>(util::fnv1a_add(util::kFnv1aBasis, vehicle_key) %
                          static_cast<std::uint64_t>(shards_.size()));
}

std::size_t ShardedIngestBackend::ingest_batch(
    const std::vector<std::string_view>& lines) {
  if (lines.empty()) return 0;
  ++batches_;
  const std::uint64_t before = frames_ingested();
  if (shards_.size() == 1) {
    for (std::string_view line : lines) shards_[0]->ingest_line(line);
  } else {
    std::vector<std::vector<std::string_view>> parts(shards_.size());
    for (auto& p : parts) p.reserve(lines.size() / shards_.size() + 1);
    for (std::string_view line : lines) {
      parts[static_cast<std::size_t>(shard_of(wire_peek_vehicle(line)))]
          .push_back(line);
    }
    for_each_shard([this, &parts](std::size_t s) {
      for (std::string_view line : parts[s]) shards_[s]->ingest_line(line);
    });
  }
  barrier();
  return static_cast<std::size_t>(frames_ingested() - before);
}

bool ShardedIngestBackend::ingest_line(std::string_view line,
                                       std::string* error) {
  return shards_[static_cast<std::size_t>(
                     shard_of(wire_peek_vehicle(line)))]
      ->ingest_line(line, error);
}

void ShardedIngestBackend::barrier() {
  PROF_SCOPE("ingest/barrier");
  sim::SimTime wm = watermark_;
  for (const auto& s : shards_) wm = std::max(wm, s->watermark());
  watermark_ = wm;
  // Backpressure watermarks (runtime plane): how many frames each shard
  // decoded since the previous barrier, and how far its watermark trails
  // the merged one. Peaks only — per-shard values depend on the shard
  // geometry, so they never feed the deterministic capture.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    BarrierStats& bs = barrier_stats_[i];
    const std::uint64_t frames = shards_[i]->frames_ingested();
    bs.backlog_peak = std::max(bs.backlog_peak, frames - bs.frames_last);
    bs.frames_last = frames;
    if (shards_[i]->frames_ingested() > 0) {
      bs.lag_us_peak = std::max(
          bs.lag_us_peak,
          static_cast<std::int64_t>(wm) -
              static_cast<std::int64_t>(shards_[i]->watermark()));
    }
  }
  std::set<std::string> dirty;
  for (auto& s : shards_) {
    std::set<std::string> d = s->take_dirty();
    dirty.insert(d.begin(), d.end());
  }
  std::vector<const std::string*> metrics;  // metric-name order
  for (const std::string& metric : dirty) {
    if (!metric.starts_with(kDetectExclude)) metrics.push_back(&metric);
  }
  if (!metrics.empty()) {
    const sim::SimTime from =
        watermark_ > kDetectWindow ? watermark_ - kDetectWindow : 0;
    // runs[m][s]: shard s's (vehicle, window mean) run for metrics[m].
    using MeanRun = std::vector<std::pair<const std::string*, double>>;
    std::vector<std::vector<MeanRun>> runs(
        metrics.size(), std::vector<MeanRun>(shards_.size()));
    for_each_shard([&](std::size_t s) {
      PROF_SCOPE("ingest/detect");
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        shards_[s]->collect_means(*metrics[m], from, watermark_, &runs[m][s]);
      }
    });
    MeanRun means;
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      // Vehicle-name order: the fold below must not depend on which shard
      // a vehicle happens to live on.
      means.clear();
      merge_by_name(
          spans(runs[m]),
          [](const auto& e) -> const std::string& { return *e.first; },
          [&means](const auto& e) { means.push_back(e); });
      detect(*metrics[m], means);
    }
  }
  mirror_metrics();
}

void ShardedIngestBackend::for_each_shard(
    const std::function<void(std::size_t)>& fn) const {
  if (pool_ == nullptr) {
    for (std::size_t s = 0; s < shards_.size(); ++s) fn(s);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    tasks.push_back([&fn, s] { fn(s); });
  }
  std::lock_guard<std::mutex> lock(pool_mu_);
  pool_->run(tasks);
}

void ShardedIngestBackend::detect(
    const std::string& metric,
    const std::vector<std::pair<const std::string*, double>>& means) {
  PROF_SCOPE("ingest/detect");
  ++detect_passes_;
  detect_scanned_ += means.size();
  if (means.size() < kMinVehicles) return;

  std::vector<double> values;
  values.reserve(means.size());
  for (const auto& [name, m] : means) values.push_back(m);
  const double med = median_of(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double x : values) deviations.push_back(std::abs(x - med));
  double mad = median_of(std::move(deviations));
  // Floor the MAD so a near-uniform fleet (MAD → 0) cannot produce
  // unbounded scores from numeric dust.
  mad = std::max(mad, 0.005 * std::max(std::abs(med), 1e-6));

  std::set<std::string>& active = active_[metric];
  for (const auto& [name, x] : means) {
    const double score = 0.6745 * std::abs(x - med) / mad;
    const bool flagged = active.count(*name) > 0;
    if (!flagged && score >= kMadThreshold) {
      active.insert(*name);
      FleetAnomaly a;
      a.at = watermark_;
      a.vehicle = *name;
      a.metric = metric;
      a.value = x;
      a.fleet_median = med;
      a.score = score;
      anomalies_.push_back(a);
    } else if (flagged && score < kMadThreshold * kClearFactor) {
      active.erase(*name);
    }
  }
}

void ShardedIngestBackend::mirror_metrics() {
  // count() and gauge() feed capture and the flight ring, each when bound.
  if (!telemetry::on() && telemetry::bound_flight() == nullptr) return;
  MirrorState now;
  now.frames = frames_ingested();
  now.samples = samples_ingested();
  now.duplicates = duplicates();
  now.decode_errors = decode_errors();
  now.passes = detect_passes_;
  now.scanned = detect_scanned_;
  auto delta = [](std::uint64_t cur, std::uint64_t prev) {
    return static_cast<std::int64_t>(cur - prev);
  };
  if (now.frames != mirrored_.frames) {
    telemetry::count("fleet.ingest.frames", delta(now.frames, mirrored_.frames));
  }
  if (now.samples != mirrored_.samples) {
    telemetry::count("fleet.ingest.samples",
                     delta(now.samples, mirrored_.samples));
  }
  if (now.duplicates != mirrored_.duplicates) {
    telemetry::count("fleet.ingest.duplicates",
                     delta(now.duplicates, mirrored_.duplicates));
  }
  if (now.decode_errors != mirrored_.decode_errors) {
    telemetry::count("fleet.ingest.decode_errors",
                     delta(now.decode_errors, mirrored_.decode_errors));
  }
  if (now.passes != mirrored_.passes) {
    telemetry::count("fleet.ingest.detect.passes",
                     delta(now.passes, mirrored_.passes));
  }
  if (now.scanned != mirrored_.scanned) {
    telemetry::count("fleet.ingest.detect.scanned",
                     delta(now.scanned, mirrored_.scanned));
  }
  std::size_t vehicles = 0;
  for (const auto& s : shards_) vehicles += s->vehicles().size();
  telemetry::gauge("fleet.ingest.vehicles", static_cast<double>(vehicles));
  mirrored_ = now;
}

std::vector<std::string> ShardedIngestBackend::anomalous_vehicles() const {
  std::vector<std::string> out;
  for (const FleetAnomaly& a : anomalies_) {
    if (std::find(out.begin(), out.end(), a.vehicle) == out.end()) {
      out.push_back(a.vehicle);
    }
  }
  return out;
}

std::vector<std::pair<const std::string*, const IngestShard::Vehicle*>>
ShardedIngestBackend::sorted_vehicles() const {
  using It = std::map<std::string, IngestShard::Vehicle>::const_iterator;
  std::vector<std::pair<It, It>> runs;
  runs.reserve(shards_.size());
  for (const auto& s : shards_) {
    runs.emplace_back(s->vehicles().begin(), s->vehicles().end());
  }
  std::vector<std::pair<const std::string*, const IngestShard::Vehicle*>> out;
  merge_by_name(
      std::move(runs),
      [](const auto& e) -> const std::string& { return e.first; },
      [&out](const auto& e) { out.emplace_back(&e.first, &e.second); });
  return out;
}

std::vector<std::string> ShardedIngestBackend::vehicles() const {
  std::vector<std::string> out;
  for (const auto& [name, v] : sorted_vehicles()) out.push_back(*name);
  return out;
}

std::int64_t ShardedIngestBackend::counter_total(const std::string& vehicle,
                                                 const std::string& name) const {
  for (const auto& s : shards_) {
    auto it = s->vehicles().find(vehicle);
    if (it == s->vehicles().end()) continue;
    auto c = it->second.counters.find(name);
    return c == it->second.counters.end() ? 0 : c->second;
  }
  return 0;
}

std::uint64_t ShardedIngestBackend::frames_ingested() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->frames_ingested();
  return n;
}

std::uint64_t ShardedIngestBackend::duplicates() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->duplicates();
  return n;
}

std::uint64_t ShardedIngestBackend::reordered() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->reordered();
  return n;
}

std::uint64_t ShardedIngestBackend::decode_errors() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->decode_errors();
  return n;
}

std::uint64_t ShardedIngestBackend::lost_frames() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->lost_frames();
  return n;
}

std::uint64_t ShardedIngestBackend::samples_ingested() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->samples_ingested();
  return n;
}

ShardedIngestBackend::PoolStats ShardedIngestBackend::pool_stats() const {
  PoolStats ps;
  for (const auto& s : shards_) {
    ps.column_allocs += s->pool().column_allocs();
    ps.column_reuses += s->pool().column_reuses();
    ps.buffer_allocs += s->pool().buffer_allocs();
    ps.buffer_reuses += s->pool().buffer_reuses();
    for (const auto& [name, v] : s->vehicles()) {
      for (const std::string& metric : v.store.names()) {
        const ColumnarSeries* series = v.store.series(metric);
        ps.sealed_blocks += series->sealed_blocks();
        ps.evicted_blocks += series->evicted_blocks();
        ps.encoded_bytes += series->encoded_bytes();
      }
    }
  }
  return ps;
}

std::string ShardedIngestBackend::rollup_table() const {
  const auto vehicles = sorted_vehicles();
  std::set<std::string> metrics;
  for (const auto& [name, v] : vehicles) {
    for (const std::string& m : v->store.names()) metrics.insert(m);
  }
  util::TextTable table("fleet metric rollup");
  table.set_header({"metric", "vehicles", "count", "mean", "p50", "p95",
                    "p99", "max", "outliers"});
  for (const std::string& metric : metrics) {
    std::size_t reporting = 0;
    std::size_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    bool have_max = false;
    util::Histogram sketch;
    sketch.set_sample_cap(ColumnarSeries::kSketchCap);
    for (const auto& [name, v] : vehicles) {
      const ColumnarSeries* series = v->store.series(metric);
      if (series == nullptr) continue;
      ++reporting;
      count += series->total_count();
      sum += series->total_sum();
      if (!have_max || series->total_max() > max) max = series->total_max();
      have_max = true;
      sketch.merge(series->sketch(0, sim::kTimeMax));
    }
    auto flagged = active_.find(metric);
    const std::size_t outliers =
        flagged == active_.end() ? 0 : flagged->second.size();
    const double mean =
        count > 0 ? sum / static_cast<double>(count) : 0.0;
    table.add_row({metric, std::to_string(reporting), std::to_string(count),
                   util::TextTable::num(mean),
                   util::TextTable::num(sketch.p50()),
                   util::TextTable::num(sketch.p95()),
                   util::TextTable::num(sketch.p99()),
                   util::TextTable::num(max), std::to_string(outliers)});
  }
  return table.to_string();
}

std::string ShardedIngestBackend::anomaly_table() const {
  util::TextTable table("fleet anomalies");
  table.set_header({"t(s)", "vehicle", "metric", "value", "fleet p50",
                    "score"});
  for (const FleetAnomaly& a : anomalies_) {
    table.add_row({util::TextTable::num(sim::to_seconds(a.at)), a.vehicle,
                   a.metric, util::TextTable::num(a.value),
                   util::TextTable::num(a.fleet_median),
                   util::TextTable::num(a.score, 1)});
  }
  return table.to_string();
}

std::string ShardedIngestBackend::vehicle_table() const {
  util::TextTable table("fleet vehicles");
  table.set_header({"vehicle", "frames", "dup", "reorder", "lost",
                    "health ev", "breaches"});
  for (const auto& [name, v] : sorted_vehicles()) {
    const std::uint64_t lost =
        v->max_seq > v->frames ? v->max_seq - v->frames : 0;
    table.add_row({*name, std::to_string(v->frames),
                   std::to_string(v->duplicates), std::to_string(v->reordered),
                   std::to_string(lost), std::to_string(v->health_events),
                   std::to_string(v->breaches)});
  }
  return table.to_string();
}

QueryResult ShardedIngestBackend::run_query(const Query& query) const {
  QueryResult r;
  r.query = query;

  if (query.kind == Query::Kind::kNear) {
    std::vector<std::vector<QueryNearHit>> hits(shards_.size());
    for_each_shard([&](std::size_t s) {
      PROF_SCOPE("ingest/query");
      for (const auto& [name, v] : shards_[s]->vehicles()) {
        if (auto hit = near_hit(name, v, query)) {
          hits[s].push_back(std::move(*hit));
        }
      }
    });
    for (auto& h : hits) {
      r.hits.insert(r.hits.end(), std::make_move_iterator(h.begin()),
                    std::make_move_iterator(h.end()));
    }
    // (dist, vehicle) is a total order, so the shard layout cannot show.
    std::sort(r.hits.begin(), r.hits.end(),
              [](const QueryNearHit& a, const QueryNearHit& b) {
                if (a.dist != b.dist) return a.dist < b.dist;
                return a.vehicle < b.vehicle;
              });
    return r;
  }

  // Rows fold in vehicle-name order: the fleet sum is a floating-point
  // fold and the fleet sketch thins by position.
  util::Histogram fleet_sketch;
  fleet_sketch.set_sample_cap(ColumnarSeries::kSketchCap);
  bool have_minmax = false;
  auto fold = [&](RangeRow& rr) {
    const ColumnarSeries::RangeAgg& agg = rr.row.agg;
    if (agg.count > 0) {
      if (!have_minmax) {
        r.fleet.min = agg.min;
        r.fleet.max = agg.max;
        have_minmax = true;
      } else {
        r.fleet.min = std::min(r.fleet.min, agg.min);
        r.fleet.max = std::max(r.fleet.max, agg.max);
      }
      r.fleet.count += agg.count;
      r.fleet.sum += agg.sum;
    }
    fleet_sketch.merge(rr.sketch);
    r.per_vehicle.push_back(std::move(rr.row));
  };
  if (!query.vehicle.empty()) {
    // A vehicle lives on one shard: K map lookups, on the calling thread
    // (a pool wake-up would cost more than the lookup).
    for (const auto& s : shards_) {
      auto it = s->vehicles().find(query.vehicle);
      if (it == s->vehicles().end()) continue;
      if (auto rr = range_row(it->first, it->second, query)) fold(*rr);
      break;
    }
  } else {
    std::vector<std::vector<RangeRow>> rows(shards_.size());
    for_each_shard([&](std::size_t s) {
      PROF_SCOPE("ingest/query");
      for (const auto& [name, v] : shards_[s]->vehicles()) {
        if (auto rr = range_row(name, v, query)) {
          rows[s].push_back(std::move(*rr));
        }
      }
    });
    merge_by_name(
        spans(rows),
        [](const RangeRow& rr) -> const std::string& {
          return rr.row.vehicle;
        },
        fold);
  }
  r.p50 = fleet_sketch.p50();
  r.p95 = fleet_sketch.p95();
  r.p99 = fleet_sketch.p99();
  return r;
}

std::string ShardedIngestBackend::run_query_text(std::string_view text,
                                                 std::string* error) const {
  Query q;
  if (!parse_query(text, &q, error)) return std::string();
  return run_query(q).to_table();
}

}  // namespace vdap::telemetry::fleet
