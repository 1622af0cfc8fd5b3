// OpenVdap — the assembled platform (Fig. 4): VCU (board + registry + DSF)
// under EdgeOSv (elastic + security + sharing + privacy), with DDI and the
// libvdap API on top, wired to the two-tier network (XEdge at RSU/base
// station + cloud) and V2V collaboration. This is the object examples and
// benches instantiate — one per vehicle.
#pragma once

#include <memory>
#include <string>

#include "core/collaboration.hpp"
#include "core/health.hpp"
#include "core/offload.hpp"
#include "core/scenario.hpp"
#include "edgeos/edgeos.hpp"
#include "hw/board.hpp"
#include "libvdap/api.hpp"

namespace vdap::core {

struct PlatformConfig {
  std::string vehicle_name = "cav-0";
  std::uint64_t vehicle_secret = 0xC0FFEE;
  /// DDI disk directory; empty = a fresh directory under the system temp
  /// (make_temp_dir), removed with the platform.
  std::string ddi_dir;
  /// Populate the reference 1stHEP (CPU+GPU+FPGA+ASIC); otherwise the
  /// caller adds processors to board() and joins them manually.
  bool reference_board = true;
  /// Create shared XEdge / cloud compute endpoints and register them with
  /// the elastic manager.
  bool with_remote_tiers = true;
  /// Instead of creating private endpoints, attach these (e.g. one RSU box
  /// shared by a whole fleet — XEdge is infrastructure, not per-vehicle).
  /// Non-null entries override with_remote_tiers for that tier.
  hw::ComputeDevice* shared_rsu = nullptr;
  hw::ComputeDevice* shared_basestation = nullptr;
  hw::ComputeDevice* shared_cloud = nullptr;
  /// Start the OBD/weather/traffic/social collectors into DDI.
  bool start_collectors = false;
  edgeos::SecurityOptions security;
  edgeos::ElasticOptions elastic;
  /// Closed-loop SLO health (core/health.hpp); disabled by default.
  HealthOptions health;
};

/// Creates a new directory `<temp>/<prefix>-XXXXXX` with mkdtemp(3) and
/// returns its path. The random suffix keeps processes that use the same
/// prefix (same vehicle name and seed) out of each other's files.
std::string make_temp_dir(const std::string& prefix);

class OpenVdap {
 public:
  OpenVdap(sim::Simulator& sim, PlatformConfig config = {});
  ~OpenVdap();

  OpenVdap(const OpenVdap&) = delete;
  OpenVdap& operator=(const OpenVdap&) = delete;

  // --- components ----------------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  hw::VcuBoard& board() { return *board_; }
  vcu::ResourceRegistry& registry() { return registry_; }
  vcu::Dsf& dsf() { return *dsf_; }
  net::Topology& topology() { return *topo_; }
  edgeos::EdgeOSv& os() { return *os_; }
  edgeos::ElasticManager& elastic() { return os_->elastic(); }
  ddi::Ddi& ddi() { return *ddi_; }
  libvdap::LibVdap& api() { return *api_; }
  OffloadPlanner& offload() { return *offload_; }
  CollaborationCache& collaboration() { return *collab_; }
  /// nullptr unless PlatformConfig::health.enabled.
  HealthController* health() { return health_.get(); }

  /// Shared remote endpoints (nullptr when with_remote_tiers is false).
  hw::ComputeDevice* remote_device(net::Tier tier);

  /// Installs the paper's service portfolio as polymorphic services:
  /// lane detection & pedestrian alert (TEE), diagnostics, infotainment,
  /// license plate / A3 (containers).
  void install_standard_services();

  /// Shorthand for os().run_service().
  std::uint64_t run_service(
      const std::string& name,
      std::function<void(const edgeos::ServiceRunReport&)> done = nullptr) {
    return os_->run_service(name, std::move(done));
  }

  const PlatformConfig& config() const { return config_; }
  const std::string& name() const { return config_.vehicle_name; }

 private:
  sim::Simulator& sim_;
  PlatformConfig config_;
  std::string ddi_dir_;
  bool owns_ddi_dir_ = false;

  std::unique_ptr<hw::VcuBoard> board_;
  vcu::ResourceRegistry registry_;
  std::unique_ptr<vcu::Dsf> dsf_;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<edgeos::EdgeOSv> os_;
  std::unique_ptr<ddi::Ddi> ddi_;
  std::unique_ptr<libvdap::LibVdap> api_;
  std::unique_ptr<OffloadPlanner> offload_;
  std::unique_ptr<CollaborationCache> collab_;
  std::unique_ptr<HealthController> health_;

  std::unique_ptr<hw::ComputeDevice> rsu_server_;
  std::unique_ptr<hw::ComputeDevice> bs_server_;
  std::unique_ptr<hw::ComputeDevice> cloud_server_;

  std::unique_ptr<ddi::ObdCollector> obd_;
  std::unique_ptr<ddi::WeatherFeed> weather_;
  std::unique_ptr<ddi::TrafficFeed> traffic_;
  std::unique_ptr<ddi::SocialFeed> social_;
};

}  // namespace vdap::core
