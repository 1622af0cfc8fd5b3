#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace vdap::net {

sim::SimDuration PathSpec::estimate(std::uint64_t bytes) const {
  sim::SimDuration total = 0;
  for (const LinkSpec& hop : hops) total += hop.estimate(bytes);
  return total;
}

sim::SimDuration PathSpec::estimate_reliable(std::uint64_t bytes) const {
  sim::SimDuration total = 0;
  for (const LinkSpec& hop : hops) total += hop.estimate_reliable(bytes);
  return total;
}

double PathSpec::bottleneck_mbps() const {
  double bw = std::numeric_limits<double>::infinity();
  for (const LinkSpec& hop : hops) bw = std::min(bw, hop.bandwidth_mbps);
  return hops.empty() ? 0.0 : bw;
}

double PathSpec::delivery_probability() const {
  double p = 1.0;
  for (const LinkSpec& hop : hops) p *= (1.0 - hop.loss_rate);
  return p;
}

LinkSpec PathSpec::collapse(const std::string& name) const {
  LinkSpec out;
  out.name = name;
  out.kind = hops.empty() ? LinkKind::kWired : hops.front().kind;
  out.bandwidth_mbps = bottleneck_mbps();
  out.latency = 0;
  for (const LinkSpec& hop : hops) out.latency += hop.latency;
  out.loss_rate = 1.0 - delivery_probability();
  return out;
}

namespace {
// Compounds two independent loss probabilities.
double combine_loss(double a, double b) {
  return 1.0 - (1.0 - a) * (1.0 - b);
}
}  // namespace

Topology::Topology(sim::Simulator& sim) : sim_(sim) {
  // On-board: no hops; always available.
  state(Tier::kOnBoard).available = true;

  state(Tier::kNeighbor).base_up = PathSpec{{links::dsrc()}};
  state(Tier::kNeighbor).base_down = PathSpec{{links::dsrc()}};
  state(Tier::kNeighbor).available = false;  // needs a willing peer

  state(Tier::kRsuEdge).base_up = PathSpec{{links::dsrc()}};
  state(Tier::kRsuEdge).base_down = PathSpec{{links::dsrc()}};

  state(Tier::kBaseStationEdge).base_up = PathSpec{{links::lte_uplink()}};
  state(Tier::kBaseStationEdge).base_down = PathSpec{{links::lte_downlink()}};
  state(Tier::kCloud).base_up =
      PathSpec{{links::lte_uplink(), links::metro_fiber()}};
  state(Tier::kCloud).base_down =
      PathSpec{{links::metro_fiber(), links::lte_downlink()}};

  for (Tier t : kAllTiers) recompute(t);
}

bool Topology::available(Tier t) const { return state(t).available; }

void Topology::set_available(Tier t, bool available) {
  if (t == Tier::kOnBoard && !available) {
    throw std::invalid_argument("the on-board tier cannot be disabled");
  }
  TierState& s2 = state(t);
  if (s2.available != available && telemetry::on()) {
    telemetry::tracer().instant(
        sim_.now(), "net", available ? "tier-up" : "tier-down", "net/topology",
        telemetry::TraceArgs()
            .add("available", available)
            .add("tier", to_string(t)));
    telemetry::count("net.tier_changes", {{"tier", to_string(t)}});
  }
  s2.available = available;
}

void Topology::apply_cellular_condition(double bandwidth_factor,
                                        double extra_loss) {
  cell_factor_ = std::clamp(bandwidth_factor, 0.01, 1.0);
  cell_extra_loss_ = std::clamp(extra_loss, 0.0, 0.99);
  recompute(Tier::kBaseStationEdge);
  recompute(Tier::kCloud);
  record_cellular_sample();
}

void Topology::apply_cellular_impairment(double bandwidth_factor,
                                         double extra_loss) {
  imp_factor_ = std::clamp(bandwidth_factor, 0.01, 1.0);
  imp_loss_ = std::clamp(extra_loss, 0.0, 0.99);
  recompute(Tier::kBaseStationEdge);
  recompute(Tier::kCloud);
  record_cellular_sample();
}

void Topology::record_cellular_sample() {
  if (!telemetry::on()) return;
  telemetry::tracer().counter(sim_.now(), "net/cellular",
                              "cellular.bandwidth_factor",
                              cellular_bandwidth_factor());
  telemetry::gauge("net.cellular_bandwidth_factor",
                   cellular_bandwidth_factor());
}

void Topology::apply_tier_condition(Tier t, double bandwidth_factor,
                                    double extra_loss) {
  if (t == Tier::kOnBoard) {
    throw std::invalid_argument("the on-board tier has no links to degrade");
  }
  TierState& s = state(t);
  s.cond_factor = std::clamp(bandwidth_factor, 0.01, 1.0);
  s.cond_loss = std::clamp(extra_loss, 0.0, 0.99);
  recompute(t);
}

void Topology::recompute(Tier t) {
  TierState& s = state(t);
  if (s.base_up.empty()) return;  // kOnBoard
  double cell_f = cell_factor_ * imp_factor_;
  double cell_l = combine_loss(cell_extra_loss_, imp_loss_);
  auto degrade = [&](const PathSpec& base) {
    PathSpec out = base;
    for (LinkSpec& hop : out.hops) {
      double f = s.cond_factor;
      double l = s.cond_loss;
      if (hop.kind == LinkKind::kLte || hop.kind == LinkKind::k5g) {
        f *= cell_f;
        l = combine_loss(l, cell_l);
      }
      hop.bandwidth_mbps *= f;
      hop.loss_rate = combine_loss(hop.loss_rate, l);
    }
    return out;
  };
  s.up = degrade(s.base_up);
  s.down = degrade(s.base_down);
  std::string base = std::string(to_string(t));
  LinkSpec up_spec = s.up.collapse(base + ".up");
  LinkSpec down_spec = s.down.collapse(base + ".down");
  if (s.up_link == nullptr) {
    s.up_link = std::make_unique<Link>(sim_, std::move(up_spec));
    s.down_link = std::make_unique<Link>(sim_, std::move(down_spec));
  } else {
    s.up_link->set_spec(std::move(up_spec));
    s.down_link->set_spec(std::move(down_spec));
  }
}

const PathSpec& Topology::uplink(Tier t) const { return state(t).up; }
const PathSpec& Topology::downlink(Tier t) const { return state(t).down; }

std::optional<sim::SimDuration> Topology::estimate_round_trip(
    Tier t, std::uint64_t up_bytes, std::uint64_t down_bytes) const {
  const TierState& s = state(t);
  if (!s.available) return std::nullopt;
  if (t == Tier::kOnBoard) return 0;
  return s.up.estimate_reliable(up_bytes) +
         s.down.estimate_reliable(down_bytes);
}

void Topology::transfer(Tier t, bool up, std::uint64_t bytes, int attempt,
                        sim::SimTime submitted,
                        std::function<void(const TransferOutcome&)> done) {
  constexpr int kMaxAttempts = 5;
  // Re-resolve the tier each attempt: availability and link specs may have
  // changed (fault injection, coverage) since the transfer was submitted.
  TierState& s = state(t);
  Link* link = up ? s.up_link.get() : s.down_link.get();
  if (link == nullptr || !s.available) {
    TransferOutcome out;
    out.delivered = false;
    out.attempts = attempt;
    out.submitted = submitted;
    out.finished = sim_.now();
    if (done) done(out);
    return;
  }
  link->send(bytes, [this, t, up, bytes, attempt, submitted,
                     done](const TransferReport& rep) {
    // A tier that dropped out while the message was in flight never
    // delivered anything the receiver could act on.
    bool delivered = rep.delivered && state(t).available;
    if (delivered || attempt + 1 >= kMaxAttempts) {
      TransferOutcome out;
      out.delivered = delivered;
      out.attempts = attempt + 1;
      out.submitted = submitted;
      out.finished = sim_.now();
      if (done) done(out);
      return;
    }
    transfer(t, up, bytes, attempt + 1, submitted, done);
  });
}

void Topology::transfer_up(Tier t, std::uint64_t bytes,
                           std::function<void(const TransferOutcome&)> done) {
  if (t == Tier::kOnBoard) {
    TransferOutcome out;
    out.delivered = true;
    out.attempts = 0;
    out.submitted = out.finished = sim_.now();
    if (done) done(out);
    return;
  }
  transfer(t, /*up=*/true, bytes, 0, sim_.now(), std::move(done));
}

void Topology::transfer_down(Tier t, std::uint64_t bytes,
                             std::function<void(const TransferOutcome&)> done) {
  if (t == Tier::kOnBoard) {
    TransferOutcome out;
    out.delivered = true;
    out.attempts = 0;
    out.submitted = out.finished = sim_.now();
    if (done) done(out);
    return;
  }
  transfer(t, /*up=*/false, bytes, 0, sim_.now(), std::move(done));
}

}  // namespace vdap::net
