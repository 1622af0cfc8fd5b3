#include "edgeos/privacy.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/strings.hpp"

namespace vdap::edgeos {

namespace {
constexpr double kMetersPerDegLat = 111'320.0;
}

PseudonymManager::PseudonymManager(std::uint64_t vehicle_secret,
                                   sim::SimDuration rotation)
    : secret_(vehicle_secret), rotation_(rotation) {
  if (rotation <= 0) throw std::invalid_argument("rotation must be > 0");
}

std::uint64_t PseudonymManager::epoch(sim::SimTime now) const {
  return static_cast<std::uint64_t>(now / rotation_);
}

std::string PseudonymManager::pseudonym(sim::SimTime now) const {
  std::uint64_t e = epoch(now);
  if (last_epoch_ != ~0ULL && e != last_epoch_ && telemetry::on()) {
    telemetry::tracer().instant(
        now, "privacy", "privacy.rotate", "privacy",
        telemetry::TraceArgs().add("epoch", e).add("from_epoch", last_epoch_));
    telemetry::count("privacy.rotations");
  }
  last_epoch_ = e;
  // One-way derivation: knowing a pseudonym (or many) does not reveal the
  // secret or link epochs. fnv1a is a stand-in for a keyed PRF.
  std::uint64_t h = util::fnv1a(util::format(
      "%016llx:%016llx", static_cast<unsigned long long>(secret_),
      static_cast<unsigned long long>(e)));
  return util::format("veh-%016llx", static_cast<unsigned long long>(h));
}

GeoPoint LocationFuzzer::fuzz(const GeoPoint& p, util::RngStream& rng) const {
  double cell_deg_lat = cell_m_ / kMetersPerDegLat;
  double cos_lat = std::cos(p.lat * M_PI / 180.0);
  if (std::abs(cos_lat) < 1e-6) cos_lat = 1e-6;
  double cell_deg_lon = cell_m_ / (kMetersPerDegLat * cos_lat);
  GeoPoint out;
  // Snap to cell centers, then jitter within the noise radius.
  out.lat = (std::floor(p.lat / cell_deg_lat) + 0.5) * cell_deg_lat;
  out.lon = (std::floor(p.lon / cell_deg_lon) + 0.5) * cell_deg_lon;
  double angle = rng.uniform(0.0, 2.0 * M_PI);
  double r = rng.uniform(0.0, noise_m_);
  out.lat += r * std::sin(angle) / kMetersPerDegLat;
  out.lon += r * std::cos(angle) / (kMetersPerDegLat * cos_lat);
  return out;
}

double distance_m(const GeoPoint& a, const GeoPoint& b) {
  double mean_lat = (a.lat + b.lat) / 2.0 * M_PI / 180.0;
  double dy = (a.lat - b.lat) * kMetersPerDegLat;
  double dx = (a.lon - b.lon) * kMetersPerDegLat * std::cos(mean_lat);
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace vdap::edgeos
