#include "edgeos/security.hpp"

#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/strings.hpp"

namespace vdap::edgeos {

SecurityModule::SecurityModule(sim::Simulator& sim, SecurityOptions options)
    : sim_(sim), options_(options) {
  // Each module (one per vehicle) derives its own key chain, so containers
  // migrated between vehicles are re-keyed under a different root of trust.
  static std::uint64_t instance_counter = 0;
  next_key_ ^= ++instance_counter * 0xbf58476d1ce4e5b9ULL;
}

std::uint64_t SecurityModule::install(const std::string& service,
                                      IsolationMode mode,
                                      std::uint64_t state_bytes) {
  if (services_.count(service) > 0) {
    throw std::invalid_argument("service '" + service + "' already installed");
  }
  Entry e;
  e.mode = mode;
  e.state = ServiceState::kRunning;
  e.key = next_key_;
  next_key_ = next_key_ * 6364136223846793005ULL + 1442695040888963407ULL;
  e.state_bytes = state_bytes;
  services_[service] = e;
  return e.key;
}

void SecurityModule::uninstall(const std::string& service) {
  if (services_.erase(service) == 0) {
    throw std::invalid_argument("service '" + service + "' not installed");
  }
}

bool SecurityModule::installed(const std::string& service) const {
  return services_.count(service) > 0;
}

const SecurityModule::Entry& SecurityModule::entry(
    const std::string& service) const {
  auto it = services_.find(service);
  if (it == services_.end()) {
    throw std::invalid_argument("service '" + service + "' not installed");
  }
  return it->second;
}

SecurityModule::Entry& SecurityModule::entry(const std::string& service) {
  return const_cast<Entry&>(
      static_cast<const SecurityModule*>(this)->entry(service));
}

IsolationMode SecurityModule::mode(const std::string& service) const {
  return entry(service).mode;
}

ServiceState SecurityModule::state(const std::string& service) const {
  return entry(service).state;
}

double SecurityModule::compute_overhead(const std::string& service) const {
  switch (entry(service).mode) {
    case IsolationMode::kTee: return options_.tee_overhead;
    case IsolationMode::kContainer: return options_.container_overhead;
    case IsolationMode::kNone: return 1.0;
  }
  return 1.0;
}

std::optional<std::uint64_t> SecurityModule::attest(
    const std::string& service) const {
  const Entry& e = entry(service);
  if (e.state != ServiceState::kRunning) return std::nullopt;
  // Token binds the service identity to its enclave/container key.
  return util::fnv1a(service) ^ e.key;
}

bool SecurityModule::verify(const std::string& service,
                            std::uint64_t token) const {
  auto it = services_.find(service);
  if (it == services_.end()) return false;
  if (it->second.state != ServiceState::kRunning) return false;
  return token == (util::fnv1a(service) ^ it->second.key);
}

bool SecurityModule::compromise(const std::string& service) {
  Entry& e = entry(service);
  if (e.mode == IsolationMode::kTee) {
    // Encrypted instructions in memory: the internal attack fails (§IV-C).
    if (telemetry::on()) {
      telemetry::tracer().instant(
          sim_.now(), "security", "attack-blocked:" + service, "security",
          telemetry::TraceArgs().add("service", service));
      telemetry::count("security.attacks_blocked");
    }
    return false;
  }
  if (e.state == ServiceState::kRunning) e.state = ServiceState::kCompromised;
  if (telemetry::on() && e.state == ServiceState::kCompromised) {
    telemetry::tracer().instant(
        sim_.now(), "security", "compromised:" + service, "security",
        telemetry::TraceArgs().add("service", service));
    telemetry::count("security.compromised");
  }
  return e.state == ServiceState::kCompromised;
}

void SecurityModule::start_monitor() {
  if (monitor_ && monitor_->active()) return;
  monitor_ = sim_.every(options_.monitor_interval, [this]() { scan(); });
}

void SecurityModule::stop_monitor() {
  if (monitor_) monitor_->stop();
}

bool SecurityModule::crash(const std::string& service) {
  Entry& e = entry(service);
  if (e.state != ServiceState::kRunning) return false;
  ++crashes_;
  telemetry::count("security.crashes");
  e.state = ServiceState::kReinstalling;
  schedule_reinstall(service);
  return true;
}

void SecurityModule::scan() {
  for (auto& [name, e] : services_) {
    if (e.state != ServiceState::kCompromised) continue;
    ++detected_;
    telemetry::count("security.detected");
    e.state = ServiceState::kReinstalling;
    schedule_reinstall(name);
  }
}

void SecurityModule::schedule_reinstall(const std::string& service) {
  std::uint64_t span = 0;
  if (telemetry::on()) {
    span = telemetry::tracer().begin(
        sim_.now(), "security", "reinstall:" + service, "security",
        telemetry::TraceArgs().add("service", service));
  }
  // Fresh key on reinstall: stolen credentials die with the old instance.
  sim_.after(options_.reinstall_duration, [this, service, span]() {
    if (telemetry::on()) telemetry::tracer().end(sim_.now(), span);
    auto it = services_.find(service);
    if (it == services_.end()) return;  // uninstalled meanwhile
    it->second.state = ServiceState::kRunning;
    it->second.key = next_key_;
    next_key_ = next_key_ * 6364136223846793005ULL + 1442695040888963407ULL;
    ++reinstalls_;
    telemetry::count("security.reinstalls");
    if (reinstall_cb_) reinstall_cb_(service);
  });
}

std::optional<ContainerImage> SecurityModule::migrate_out(
    const std::string& service) {
  Entry& e = entry(service);
  if (e.mode == IsolationMode::kTee) return std::nullopt;
  if (e.state != ServiceState::kRunning) return std::nullopt;
  ContainerImage img;
  img.service = service;
  img.mode = e.mode;
  img.state_bytes = e.state_bytes;
  img.attestation_key = e.key;
  services_.erase(service);
  return img;
}

void SecurityModule::migrate_in(const ContainerImage& image) {
  if (services_.count(image.service) > 0) {
    throw std::invalid_argument("service '" + image.service +
                                "' already present");
  }
  Entry e;
  e.mode = image.mode;
  e.state = ServiceState::kRunning;
  // A migrated container is re-keyed under the local root of trust; the
  // foreign key is not honored ("a neighbor vehicle ... may not be
  // trustworthy").
  e.key = next_key_;
  next_key_ = next_key_ * 6364136223846793005ULL + 1442695040888963407ULL;
  e.state_bytes = image.state_bytes;
  services_[image.service] = e;
}

std::vector<std::string> SecurityModule::services() const {
  std::vector<std::string> out;
  out.reserve(services_.size());
  for (const auto& [name, e] : services_) out.push_back(name);
  return out;
}

}  // namespace vdap::edgeos
