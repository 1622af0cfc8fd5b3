#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace vdap::net {

sim::SimDuration LinkSpec::estimate(std::uint64_t bytes) const {
  double serialize_s = static_cast<double>(bytes) * 8.0 / (bandwidth_mbps * 1e6);
  return latency + sim::from_seconds(serialize_s);
}

sim::SimDuration LinkSpec::estimate_reliable(std::uint64_t bytes) const {
  // With iid message loss p, a stop-and-wait sender needs 1/(1-p) expected
  // attempts. Clamp so a pathological loss rate stays finite.
  double p = std::clamp(loss_rate, 0.0, 0.95);
  double attempts = 1.0 / (1.0 - p);
  return static_cast<sim::SimDuration>(
      static_cast<double>(estimate(bytes)) * attempts);
}

namespace links {

LinkSpec dsrc() {
  // 802.11p: ~27 Mbps effective at short range, one hop.
  return {"dsrc", LinkKind::kDsrc, 27.0, sim::msec(2), 0.01};
}

LinkSpec nr5g() {
  return {"5g", LinkKind::k5g, 200.0, sim::msec(8), 0.005};
}

LinkSpec lte_uplink() {
  // §III-A cites 100 Mbps as the *fastest* LTE upload; a realistic
  // sustained uplink is far lower. Wide-area RTT dominates latency.
  return {"lte-up", LinkKind::kLte, 20.0, sim::msec(35), 0.01};
}

LinkSpec lte_downlink() {
  return {"lte-down", LinkKind::kLte, 60.0, sim::msec(35), 0.01};
}

LinkSpec wifi() {
  return {"wifi", LinkKind::kWifi, 80.0, sim::msec(3), 0.005};
}

LinkSpec bluetooth() {
  return {"bluetooth", LinkKind::kBluetooth, 2.0, sim::msec(15), 0.01};
}

LinkSpec metro_fiber() {
  // RSU / base station to regional cloud over wired backhaul (§IV-A).
  return {"metro-fiber", LinkKind::kWired, 1000.0, sim::msec(12), 0.0};
}

}  // namespace links

Link::Link(sim::Simulator& sim, LinkSpec spec)
    : sim_(sim), spec_(std::move(spec)) {
  if (spec_.bandwidth_mbps <= 0) {
    throw std::invalid_argument("link bandwidth must be positive");
  }
}

void Link::set_spec(LinkSpec spec) {
  if (spec.bandwidth_mbps <= 0) {
    throw std::invalid_argument("link bandwidth must be positive");
  }
  if (spec.name != spec_.name) loss_rng_ = nullptr;
  spec_ = std::move(spec);
}

std::uint64_t Link::send(std::uint64_t bytes,
                         std::function<void(const TransferReport&)> done) {
  std::uint64_t id = next_id_++;
  pending_.push_back(Msg{id, bytes, sim_.now(), std::move(done)});
  maybe_start();
  return id;
}

void Link::maybe_start() {
  if (busy_ || pending_.empty()) return;
  busy_ = true;
  std::uint32_t slot;
  if (!free_inflight_.empty()) {
    slot = free_inflight_.back();
    free_inflight_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.emplace_back();
  }
  inflight_[slot] = pending_.pop_front();
  double serialize_s = static_cast<double>(inflight_[slot].bytes) * 8.0 /
                       (spec_.bandwidth_mbps * 1e6);
  // The link frees up after serialization; delivery lands after propagation.
  sim_.after(sim::from_seconds(serialize_s),
             [this, slot]() { serialized(slot); });
}

void Link::serialized(std::uint32_t slot) {
  busy_ = false;
  bytes_sent_ += inflight_[slot].bytes;
  bool lost = false;
  if (spec_.loss_rate > 0.0) {
    if (loss_rng_ == nullptr) loss_rng_ = &sim_.rng("link." + spec_.name);
    lost = loss_rng_->chance(spec_.loss_rate);
  }
  maybe_start();
  sim_.after(spec_.latency, [this, slot, lost]() { arrived(slot, lost); });
}

void Link::arrived(std::uint32_t slot, bool lost) {
  // Take the message out before `done` runs: it may send again, and the
  // next transfer may reuse this slot or grow `inflight_`.
  Msg msg = std::move(inflight_[slot]);
  free_inflight_.push_back(slot);
  if (lost) {
    ++dropped_;
  } else {
    ++delivered_;
  }
  if (telemetry::on()) {
    telemetry::tracer().complete(
        msg.submitted, sim_.now() - msg.submitted, "net", "xfer",
        "net/" + spec_.name,
        telemetry::TraceArgs().add("bytes", msg.bytes).add("delivered", !lost));
    telemetry::count("net.messages", {{"link", spec_.name}});
    telemetry::count("net.bytes", {{"link", spec_.name}},
                     static_cast<std::int64_t>(msg.bytes));
    if (lost) telemetry::count("net.dropped", {{"link", spec_.name}});
  }
  if (msg.done) {
    TransferReport rep;
    rep.transfer_id = msg.id;
    rep.bytes = msg.bytes;
    rep.submitted = msg.submitted;
    rep.finished = sim_.now();
    rep.delivered = !lost;
    msg.done(rep);
  }
}

}  // namespace vdap::net
