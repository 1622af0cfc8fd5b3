#include "telemetry/fleet/shipper.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/prof/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vdap::telemetry::fleet {

namespace {

// The tier frames ship toward, the pending samples per metric and health
// events kept between cuts (drop-oldest), and the longest retry backoff.
constexpr net::Tier kTier = net::Tier::kCloud;
constexpr std::size_t kMaxSamplesPerMetric = 512;
constexpr std::size_t kMaxEvents = 64;
constexpr sim::SimDuration kBackoffCap = sim::seconds(8);

net::LinkSpec shipping_spec(const net::Topology& topo,
                            const std::string& link_name) {
  const net::PathSpec& path = topo.uplink(kTier);
  if (!path.empty()) return path.collapse(link_name);
  // An empty path: a loopback-ish wired link so the shipper still works
  // in single-box setups.
  net::LinkSpec spec;
  spec.name = link_name;
  spec.kind = net::LinkKind::kWired;
  spec.bandwidth_mbps = 1000.0;
  spec.latency = sim::usec(50);
  return spec;
}

/// The entry `name` names in one of the pending maps, made on first use.
template <typename Map>
typename Map::mapped_type& pending_entry(Map& pending, std::string_view name) {
  auto it = pending.find(name);
  if (it == pending.end()) it = pending.try_emplace(std::string(name)).first;
  return it->second;
}

}  // namespace

TelemetryShipper::TelemetryShipper(sim::Simulator& sim, std::string vehicle,
                                   net::Topology& topo, DeliverFn deliver,
                                   Options options)
    : sim_(sim), vehicle_(std::move(vehicle)), topo_(topo),
      deliver_(std::move(deliver)), opts_(options) {
  opts_.max_queue = std::max<std::size_t>(opts_.max_queue, 1);
  opts_.max_attempts = std::max(opts_.max_attempts, 1);
  opts_.flush_period = std::max<sim::SimDuration>(opts_.flush_period, 1);
  link_ = std::make_unique<net::Link>(
      sim_, shipping_spec(topo_, "ship/" + vehicle_));
}

TelemetryShipper::~TelemetryShipper() {
  *alive_ = false;
  flusher_.stop();
}

void TelemetryShipper::count(std::string_view name, std::int64_t by) {
  PendingCounter& c = pending_entry(pending_counters_, name);
  c.delta += by;
  c.touched = true;
  pending_ = true;
}

void TelemetryShipper::gauge(std::string_view name, double value) {
  if (!std::isfinite(value)) return;
  PendingGauge& g = pending_entry(pending_gauges_, name);
  g.value = value;
  g.touched = true;
  pending_ = true;
}

void TelemetryShipper::observe(std::string_view name, double value) {
  if (!std::isfinite(value)) return;
  std::vector<WireSample>& buf = pending_entry(pending_samples_, name);
  buf.emplace_back(sim_.now(), value);
  pending_ = true;
  ++stats_.samples_recorded;
  if (buf.size() > kMaxSamplesPerMetric) {
    buf.erase(buf.begin());
    ++stats_.samples_dropped;
  }
}

void TelemetryShipper::on_health_event(const analysis::HealthEvent& event) {
  WireHealthEvent w;
  w.at = event.at;
  w.kind = std::string(analysis::to_string(event.kind));
  w.severity = std::string(analysis::to_string(event.severity));
  w.service = event.service;
  w.observed = event.observed;
  w.target = event.target;
  w.implicated_tier = event.implicated_tier;
  pending_events_.push_back(std::move(w));
  pending_ = true;
  if (pending_events_.size() > kMaxEvents) {
    pending_events_.erase(pending_events_.begin());
  }
}

void TelemetryShipper::start() {
  if (started_) return;
  started_ = true;
  // The destructor stops flusher_, so a tick never fires after it: the
  // callback needs no guard of its own, and `[this]` fits std::function's
  // local buffer.
  flusher_ = sim_.every(opts_.flush_period, [this]() { cut_frame(); });
}

void TelemetryShipper::stop() {
  flusher_.stop();
  started_ = false;
}

void TelemetryShipper::flush_now() { cut_frame(); }

void TelemetryShipper::cut_frame() {
  PROF_SCOPE("shipper/cut_frame");
  if (!pending_) return;
  pending_ = false;
  WireWriter frame;
  Outbound ob;
  for (auto& [name, c] : pending_counters_) {
    if (!c.touched) continue;
    frame.counter(name, c.delta);
    c = PendingCounter{};
  }
  for (const WireHealthEvent& ev : pending_events_) frame.event(ev);
  pending_events_.clear();
  for (auto& [name, g] : pending_gauges_) {
    if (!g.touched) continue;
    frame.gauge(name, g.value);
    g.touched = false;
  }
  for (auto& [name, samples] : pending_samples_) {
    if (samples.empty()) continue;
    frame.series(name, samples);
    ob.samples += samples.size();
    samples.clear();
  }
  ob.bytes = frame.finish(++seq_, sim_.now(), vehicle_);
  ++stats_.frames_enqueued;
  mirror_count("fleet.shipper.enqueued", 1);
  enqueue(std::move(ob));
}

void TelemetryShipper::enqueue(Outbound frame) {
  // Drop the oldest before the push, so the queue never holds more than
  // max_queue frames (and its ring never more than it needs for them).
  while (queue_.size() >= opts_.max_queue) {
    queue_.pop_front();
    drop_frame(1);
  }
  queue_.push_back(std::move(frame));
  maybe_send();
}

void TelemetryShipper::maybe_send() {
  if (inflight_.has_value() || waiting_ || queue_.empty()) return;
  inflight_ = queue_.pop_front();
  attempts_ = 0;
  attempt();
}

void TelemetryShipper::attempt() {
  if (!inflight_.has_value()) return;
  ++stats_.send_attempts;
  if (attempts_ > 0) ++stats_.retries;
  ++attempts_;
  if (!topo_.available(kTier)) {
    settle(false);
    return;
  }
  // The link keeps its "ship/<vehicle>" name; re-collapse the path under
  // it, so impairments applied since the last attempt take effect.
  link_->set_spec(shipping_spec(topo_, link_->spec().name));
  const std::uint64_t bytes = inflight_->bytes.size();
  stats_.wire_bytes += bytes;
  mirror_count("fleet.shipper.wire_bytes", static_cast<std::int64_t>(bytes));
  // Completions run inside the link, which this shipper owns and destroys
  // with itself, so a liveness guard here would protect nothing. `[this]`
  // alone fits std::function's local buffer.
  link_->send(bytes,
              [this](const net::TransferReport& r) { settle(r.delivered); });
}

void TelemetryShipper::settle(bool delivered) {
  if (!inflight_.has_value()) return;
  if (delivered) {
    ++stats_.frames_acked;
    stats_.samples_acked += inflight_->samples;
    mirror_count("fleet.shipper.acked", 1);
    std::string bytes = std::move(inflight_->bytes);
    inflight_.reset();
    attempts_ = 0;
    if (deliver_) deliver_(bytes);
    maybe_send();
    return;
  }
  if (attempts_ >= opts_.max_attempts) {
    drop_frame(1);
    inflight_.reset();
    attempts_ = 0;
    maybe_send();
    return;
  }
  waiting_ = true;
  sim_.after(backoff(attempts_), [this, alive = alive_]() {
    if (!*alive) return;
    waiting_ = false;
    attempt();
  });
}

void TelemetryShipper::drop_frame(std::uint64_t count) {
  stats_.frames_dropped += count;
  mirror_count("fleet.shipper.dropped", static_cast<std::int64_t>(count));
}

sim::SimDuration TelemetryShipper::backoff(int attempt) const {
  sim::SimDuration delay = opts_.backoff_base;
  for (int i = 1; i < attempt && delay < kBackoffCap; ++i) delay *= 2;
  return std::min(delay, kBackoffCap);
}

void TelemetryShipper::mirror_count(std::string_view name, std::int64_t by) {
  telemetry::count(name, {{"vehicle", vehicle_}}, by);
}

}  // namespace vdap::telemetry::fleet
