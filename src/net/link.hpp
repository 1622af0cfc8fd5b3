// Point-to-point link models.
//
// OpenVDAP's communication fabric (§IV-A): DSRC and 5G for V2V / V2-RSU,
// cellular (3G/4G/LTE) vehicle-to-base-station, WiFi/Bluetooth for passenger
// devices, and wired Ethernet/fiber between RSU/base station and the cloud.
// A Link is a FIFO store-and-forward pipe: serialization at `bandwidth_mbps`
// plus fixed propagation `latency`, with optional iid packet/message loss.
// Analytic estimates (no queueing) are exposed for the offload planner.
//
// The link owns every message it carries: queued ones in `pending_`, and
// each serializing or propagating one in an `inflight_` slot, which its
// two events name by index (`[this, slot]`, then `[this, slot, lost]`).
// Both closures are trivially copyable and fit std::function's local
// buffer, so a steady-state transfer allocates nothing beyond its
// caller's `done`. The loss stream ("link.<name>") is resolved on the
// first lossy transfer and kept until set_spec() renames the link.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/fifo.hpp"

namespace vdap::net {

enum class LinkKind { kDsrc, kLte, k5g, kWifi, kBluetooth, kWired };

constexpr std::string_view to_string(LinkKind k) {
  switch (k) {
    case LinkKind::kDsrc: return "dsrc";
    case LinkKind::kLte: return "lte";
    case LinkKind::k5g: return "5g";
    case LinkKind::kWifi: return "wifi";
    case LinkKind::kBluetooth: return "bluetooth";
    case LinkKind::kWired: return "wired";
  }
  return "unknown";
}

struct LinkSpec {
  std::string name;
  LinkKind kind = LinkKind::kWired;
  double bandwidth_mbps = 100.0;
  sim::SimDuration latency = sim::msec(1);
  double loss_rate = 0.0;  // iid per-message loss (retransmits model below)

  /// Serialization + propagation time for `bytes`, ignoring queueing and
  /// loss. The offload planner's base estimate.
  sim::SimDuration estimate(std::uint64_t bytes) const;

  /// Expected time including loss-driven retransmissions (geometric retry
  /// model, as a reliable transport would experience on this link).
  sim::SimDuration estimate_reliable(std::uint64_t bytes) const;
};

/// Reference specs for each medium. Bandwidth/latency figures follow the
/// paper's usage: DSRC/5G "higher bandwidth" short-range (§IV-A), LTE with
/// ~100 Mbps down / ~20 Mbps up and wide-area latency, wired RSU-to-cloud.
namespace links {
LinkSpec dsrc();              // vehicle <-> vehicle / RSU, one hop
LinkSpec nr5g();              // vehicle <-> RSU / base station
LinkSpec lte_uplink();        // vehicle -> base station
LinkSpec lte_downlink();      // base station -> vehicle
LinkSpec wifi();              // vehicle <-> passenger device
LinkSpec bluetooth();         // vehicle <-> passenger device (low rate)
LinkSpec metro_fiber();       // RSU / base station <-> cloud
}  // namespace links

struct TransferReport {
  std::uint64_t transfer_id = 0;
  std::uint64_t bytes = 0;
  sim::SimTime submitted = 0;
  sim::SimTime finished = 0;
  bool delivered = true;  // false when the loss model dropped the message
  sim::SimDuration latency() const { return finished - submitted; }
};

/// Event-driven FIFO link. Messages serialize one at a time at the link
/// rate; delivery fires after propagation latency. With loss_rate > 0 each
/// message is dropped independently (UDP semantics); callers wanting
/// reliability layer retries on top.
class Link {
 public:
  Link(sim::Simulator& sim, LinkSpec spec);

  std::uint64_t send(std::uint64_t bytes,
                     std::function<void(const TransferReport&)> done);

  /// Swaps the link's spec in place (condition changes, fault injection).
  /// The message currently serializing finishes at the rate it started
  /// with; queued and future messages see the new spec. Keeping the Link
  /// object alive across condition changes keeps in-flight completion
  /// events valid.
  void set_spec(LinkSpec spec);

  const LinkSpec& spec() const { return spec_; }
  std::size_t queue_length() const { return pending_.size(); }
  bool busy() const { return busy_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Msg {
    std::uint64_t id = 0;
    std::uint64_t bytes = 0;
    sim::SimTime submitted = 0;
    std::function<void(const TransferReport&)> done;
  };
  void maybe_start();
  void serialized(std::uint32_t slot);
  void arrived(std::uint32_t slot, bool lost);

  sim::Simulator& sim_;
  LinkSpec spec_;
  util::Fifo<Msg> pending_;
  std::vector<Msg> inflight_;
  std::vector<std::uint32_t> free_inflight_;
  util::RngStream* loss_rng_ = nullptr;
  bool busy_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace vdap::net
