#include "core/offload.hpp"

#include "telemetry/telemetry.hpp"

namespace vdap::core {

edgeos::PolymorphicService whole_dag_service(
    const workload::AppDag& dag, const std::vector<net::Tier>& tiers) {
  edgeos::PolymorphicService svc;
  svc.dag = dag;
  for (net::Tier tier : tiers) {
    edgeos::Pipeline p;
    p.name = std::string(net::to_string(tier));
    p.placement.resize(static_cast<std::size_t>(dag.size()));
    for (int i = 0; i < dag.size(); ++i) {
      p.placement[static_cast<std::size_t>(i)] =
          dag.task(i).offloadable ? tier : net::Tier::kOnBoard;
    }
    svc.pipelines.push_back(std::move(p));
  }
  return svc;
}

OffloadPlanner::OffloadPlanner(edgeos::ElasticManager& elastic,
                               std::vector<net::Tier> candidate_tiers)
    : elastic_(elastic), tiers_(std::move(candidate_tiers)) {}

OffloadDecision OffloadPlanner::decide(const workload::AppDag& dag) const {
  edgeos::PolymorphicService svc = whole_dag_service(dag, tiers_);
  const edgeos::Pipeline* best = elastic_.choose(svc);
  OffloadDecision d;
  if (best != nullptr) {
    auto ests = elastic_.estimate(svc);
    for (std::size_t i = 0; i < svc.pipelines.size(); ++i) {
      if (svc.pipelines[i].name == best->name) {
        d.tier = tiers_[i];
        d.est_latency = ests[i].latency;
        d.onboard_energy_j = ests[i].onboard_energy_j;
        d.feasible = true;
        break;
      }
    }
  }

  if (telemetry::on()) {
    // Record the decision with the per-tier scores that drove it.
    json::Object scores;
    for (const edgeos::PipelineEstimate& e : elastic_.estimate(svc)) {
      json::Object s;
      s["feasible"] = e.feasible;
      if (e.feasible) {
        s["latency_ms"] = sim::to_millis(e.latency);
        s["energy_j"] = e.onboard_energy_j;
      }
      scores[e.pipeline] = json::Value(std::move(s));
    }
    telemetry::tracer().instant(
        elastic_.simulator().now(), "offload", "decide:" + dag.name(),
        "offload",
        telemetry::TraceArgs()
            .add("chosen", d.feasible ? std::string(net::to_string(d.tier))
                                      : "(infeasible)")
            .add("scores", json::Value(std::move(scores))));
    if (d.feasible) {
      telemetry::count("offload.decisions",
                       {{"tier", net::to_string(d.tier)}});
    } else {
      telemetry::count("offload.infeasible");
    }
  }
  return d;
}

std::optional<sim::SimDuration> OffloadPlanner::estimate(
    const workload::AppDag& dag, net::Tier tier) const {
  edgeos::PolymorphicService svc = whole_dag_service(dag, {tier});
  auto ests = elastic_.estimate(svc);
  if (ests.empty() || !ests[0].feasible) return std::nullopt;
  return ests[0].latency;
}

std::uint64_t OffloadPlanner::run(
    const workload::AppDag& dag,
    std::function<void(const edgeos::ServiceRunReport&)> done) {
  return elastic_.run(whole_dag_service(dag, tiers_), std::move(done));
}

}  // namespace vdap::core
