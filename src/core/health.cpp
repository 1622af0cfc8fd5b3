#include "core/health.hpp"

#include "net/impair.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/telemetry.hpp"

namespace vdap::core {

namespace analysis = telemetry::analysis;

HealthController::HealthController(sim::Simulator& sim,
                                   edgeos::ElasticManager& elastic,
                                   HealthOptions options)
    : sim_(sim), elastic_(elastic), options_(std::move(options)),
      evaluator_(options_.evaluator) {
  std::vector<analysis::SloTarget> targets =
      options_.targets.empty() ? analysis::standard_slos() : options_.targets;
  for (analysis::SloTarget& t : targets) {
    evaluator_.add_target(std::move(t));
  }
  evaluator_.set_listener(
      [this](const analysis::HealthEvent& ev) { on_event(ev); });
}

void HealthController::on_run(const edgeos::ServiceRunReport& report) {
  analysis::RunObservation obs;
  obs.service = report.service;
  obs.finished = report.finished;
  obs.latency = report.latency();
  obs.ok = report.ok;
  obs.dominant_segment = std::string(report.segments.dominant());
  obs.implicated_tier = report.implicated_tier;
  evaluator_.observe(obs);
}

void HealthController::flush() { evaluator_.flush(sim_.now()); }

void HealthController::on_event(const analysis::HealthEvent& event) {
  const bool breach = event.kind == analysis::HealthEventKind::kLatencyBreach ||
                      event.kind ==
                          analysis::HealthEventKind::kAvailabilityBreach;
  if (telemetry::on()) {
    telemetry::TraceArgs args;
    args.add("observed", event.observed);
    if (!event.attributed_segment.empty()) {
      args.add("segment", event.attributed_segment);
    }
    args.add("service", event.service)
        .add("severity", analysis::to_string(event.severity))
        .add("target", event.target);
    if (!event.implicated_tier.empty()) args.add("tier", event.implicated_tier);
    telemetry::tracer().instant(
        event.at, "health", std::string(analysis::to_string(event.kind)),
        "health", std::move(args));
    telemetry::count(breach ? "health.breaches" : "health.recoveries",
                     {{"service", event.service}});
  }
  // Flight plane: the black box records SLO edges (with the critical-
  // path tier attribution as the blame field) even when full capture is
  // off, and a breach raises an incident trigger.
  telemetry::flight_health(event.at, event.service, event.implicated_tier,
                           breach, event.observed);

  if (breach) {
    std::optional<net::Tier> tier =
        net::tier_from_string(event.implicated_tier);
    if (tier.has_value() && *tier != net::Tier::kOnBoard) {
      blame_[event.service] = *tier;
    }
  } else if (!evaluator_.breached(event.service)) {
    blame_.erase(event.service);
  }
  reconcile_penalties();
  if (event_sink_) event_sink_(event);
}

std::string HealthController::blaming_services(net::Tier tier) const {
  std::string out;
  for (const auto& [service, blamed] : blame_) {
    if (blamed != tier) continue;
    if (!out.empty()) out += ",";
    out += service;
  }
  return out;
}

void HealthController::reconcile_penalties() {
  std::map<net::Tier, double> desired;
  for (const auto& [service, tier] : blame_) {
    desired[tier] = options_.tier_penalty;
  }
  for (const auto& [tier, factor] : desired) {
    auto it = applied_.find(tier);
    if (it == applied_.end() || it->second != factor) {
      elastic_.set_tier_penalty(tier, factor);
      if (telemetry::on()) {
        // The "services" arg answers *why* the loop acted: which breaching
        // services blame this tier right now (vdap-report's health
        // timeline prints it next to the demotion).
        telemetry::tracer().instant(sim_.now(), "health", "health.penalize",
                                    "health",
                                    telemetry::TraceArgs()
                                        .add("factor", factor)
                                        .add("services", blaming_services(tier))
                                        .add("tier", net::to_string(tier)));
        telemetry::count("health.penalties");
      }
    }
  }
  for (const auto& [tier, factor] : applied_) {
    if (desired.count(tier) == 0) {
      elastic_.clear_tier_penalty(tier);
      if (telemetry::on()) {
        // "services" is empty: nobody blames the tier any more.
        telemetry::tracer().instant(sim_.now(), "health", "health.restore",
                                    "health",
                                    telemetry::TraceArgs()
                                        .add("services", blaming_services(tier))
                                        .add("tier", net::to_string(tier)));
        telemetry::count("health.restores");
      }
    }
  }
  applied_ = std::move(desired);
}

}  // namespace vdap::core
