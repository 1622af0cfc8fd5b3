#include "core/platform.hpp"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "telemetry/telemetry.hpp"
#include "workload/apps.hpp"

namespace vdap::core {

namespace fs = std::filesystem;

std::string make_temp_dir(const std::string& prefix) {
  std::string path =
      (fs::temp_directory_path() / (prefix + "-XXXXXX")).string();
  if (mkdtemp(path.data()) == nullptr) {
    throw std::system_error(errno, std::generic_category(), "mkdtemp " + path);
  }
  return path;
}

OpenVdap::OpenVdap(sim::Simulator& sim, PlatformConfig config)
    : sim_(sim), config_(std::move(config)) {
  // --- storage --------------------------------------------------------------
  if (config_.ddi_dir.empty()) {
    ddi_dir_ = make_temp_dir("openvdap-" + config_.vehicle_name + "-" +
                             std::to_string(sim_.seed()));
    owns_ddi_dir_ = true;
  } else {
    ddi_dir_ = config_.ddi_dir;
  }

  // --- VCU -------------------------------------------------------------------
  board_ = std::make_unique<hw::VcuBoard>(sim_, config_.vehicle_name + "-vcu");
  if (config_.reference_board) {
    hw::populate_reference_1sthep(*board_);
    for (const auto& dev : board_->devices()) registry_.join(dev.get());
  }
  dsf_ = std::make_unique<vcu::Dsf>(
      sim_, registry_, std::make_unique<vcu::GreedyEftScheduler>());

  // --- network + OS -----------------------------------------------------------
  topo_ = std::make_unique<net::Topology>(sim_);
  os_ = std::make_unique<edgeos::EdgeOSv>(sim_, *dsf_, *topo_,
                                          config_.vehicle_secret,
                                          config_.security, config_.elastic);

  auto attach = [&](net::Tier tier, hw::ComputeDevice* shared,
                    std::unique_ptr<hw::ComputeDevice>& owned,
                    hw::ProcessorSpec spec) {
    if (shared != nullptr) {
      os_->elastic().set_remote_device(tier, shared);
    } else if (config_.with_remote_tiers) {
      owned = std::make_unique<hw::ComputeDevice>(sim_, std::move(spec));
      os_->elastic().set_remote_device(tier, owned.get());
    }
  };
  attach(net::Tier::kRsuEdge, config_.shared_rsu, rsu_server_,
         hw::catalog::rsu_edge_server());
  attach(net::Tier::kBaseStationEdge, config_.shared_basestation, bs_server_,
         hw::catalog::basestation_edge_server());
  attach(net::Tier::kCloud, config_.shared_cloud, cloud_server_,
         hw::catalog::cloud_server());

  // --- DDI + libvdap ----------------------------------------------------------
  ddi::DdiOptions ddi_opts;
  ddi_opts.disk.dir = ddi_dir_;
  ddi_ = std::make_unique<ddi::Ddi>(sim_, ddi_opts);
  api_ = std::make_unique<libvdap::LibVdap>(
      libvdap::ModelRegistry::with_default_catalog(), registry_, *ddi_);

  offload_ = std::make_unique<OffloadPlanner>(os_->elastic());
  if (config_.health.enabled) {
    health_ = std::make_unique<HealthController>(sim_, os_->elastic(),
                                                 config_.health);
    os_->elastic().set_run_observer(
        [this](const edgeos::ServiceRunReport& rep) { health_->on_run(rep); });
  }
  collab_ = std::make_unique<CollaborationCache>(
      sim_, config_.vehicle_name, os_->pseudonyms().pseudonym(sim_.now()));

  if (config_.start_collectors) {
    auto sink = [this](ddi::DataRecord rec) { ddi_->upload(std::move(rec)); };
    obd_ = std::make_unique<ddi::ObdCollector>(sim_, sink);
    weather_ = std::make_unique<ddi::WeatherFeed>(sim_, sink);
    traffic_ = std::make_unique<ddi::TrafficFeed>(sim_, sink);
    social_ = std::make_unique<ddi::SocialFeed>(sim_, sink);
    obd_->start();
    weather_->start();
    traffic_->start();
    social_->start();
  }

  if (telemetry::on()) {
    telemetry::tracer().instant(
        sim_.now(), "platform", "platform.boot", "platform",
        telemetry::TraceArgs()
            .add("devices", board_->devices().size())
            .add("remote_tiers", config_.with_remote_tiers)
            .add("vehicle", config_.vehicle_name));
    telemetry::count("platform.boots");
  }
}

OpenVdap::~OpenVdap() {
  if (owns_ddi_dir_) {
    std::error_code ec;
    fs::remove_all(ddi_dir_, ec);  // best effort
  }
}

hw::ComputeDevice* OpenVdap::remote_device(net::Tier tier) {
  switch (tier) {
    case net::Tier::kRsuEdge:
      return config_.shared_rsu != nullptr ? config_.shared_rsu
                                           : rsu_server_.get();
    case net::Tier::kBaseStationEdge:
      return config_.shared_basestation != nullptr
                 ? config_.shared_basestation
                 : bs_server_.get();
    case net::Tier::kCloud:
      return config_.shared_cloud != nullptr ? config_.shared_cloud
                                             : cloud_server_.get();
    default: return nullptr;
  }
}

void OpenVdap::install_standard_services() {
  using edgeos::IsolationMode;
  using edgeos::make_polymorphic_multi;
  const std::vector<net::Tier> tiers = {net::Tier::kRsuEdge,
                                        net::Tier::kCloud};
  // Safety-critical ADAS runs in the TEE (§IV-C: "the key and
  // safety-critical applications could rely on the trusted execution
  // environment").
  os_->install_service(
      make_polymorphic_multi(workload::apps::lane_detection(), tiers),
      IsolationMode::kTee);
  os_->install_service(
      make_polymorphic_multi(workload::apps::pedestrian_detection(), tiers),
      IsolationMode::kTee);
  // Everything else gets containers.
  os_->install_service(
      make_polymorphic_multi(workload::apps::obd_diagnostics(), tiers),
      IsolationMode::kContainer);
  os_->install_service(
      make_polymorphic_multi(workload::apps::infotainment_chunk(), tiers),
      IsolationMode::kContainer);
  os_->install_service(
      make_polymorphic_multi(workload::apps::license_plate_pipeline(), tiers),
      IsolationMode::kContainer);
  os_->install_service(
      make_polymorphic_multi(workload::apps::a3_kidnapper_search(), tiers),
      IsolationMode::kContainer);
  os_->install_service(
      make_polymorphic_multi(workload::apps::speech_assistant(), tiers),
      IsolationMode::kContainer);
  telemetry::count("platform.services_installed", 7);
}

}  // namespace vdap::core
