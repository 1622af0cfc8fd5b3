// Elastic Management (§IV-C, Fig. 6): chooses, per release, the pipeline of
// a polymorphic service that best meets its QoS under the *current* network
// and compute conditions — "pipelines with lower response time can be
// chosen for the service, and some services will be hung up, which cannot
// be responded to within the required time no matter what the computational
// workload is executed in the cloud, at the edge, or in the collaborative
// cloud-edge environment."
//
// Estimation walks the DAG: per-task execution estimates come from the
// on-board registry (backlog-aware) or the shared remote tier servers;
// tier-crossing edges pay reliable-transfer time on the current paths.
// Execution is event-driven over the same model, so estimates and actuals
// diverge only through contention that arises after the decision — exactly
// the gap the paper's dynamic re-evaluation addresses.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "edgeos/service.hpp"
#include "net/topology.hpp"
#include "vcu/dsf.hpp"

namespace vdap::edgeos {

enum class Goal { kMinLatency, kMinEnergy };

struct PipelineEstimate {
  std::string pipeline;
  bool feasible = false;          // every task has a capable endpoint
  sim::SimDuration latency = 0;   // end-to-end, result back on the vehicle
  double onboard_energy_j = 0.0;  // vehicle-side compute + radio energy
};

/// Where one service run's wall time went (DESIGN.md §6d). These are
/// attribution *sums*, not a partition of latency: parallel DAG branches
/// overlap, and a failed attempt's network/compute time also lies inside
/// its failover window. The trace-based critical-path extractor
/// (telemetry/analysis/critical_path.hpp) computes the exclusive
/// decomposition offline; these streaming sums give the SLO evaluator its
/// attribution without trace parsing.
struct SegmentBreakdown {
  sim::SimDuration queue = 0;     // hung, waiting for any pipeline to fit
  sim::SimDuration network = 0;   // tier-crossing transfers, wall time
  sim::SimDuration compute = 0;   // device queueing + execution, all tasks
  sim::SimDuration failover = 0;  // attempts abandoned to mid-run failover

  /// The largest segment ("queue"/"net"/"compute"/"failover"); "compute"
  /// when all are zero (a run that never left the board lives there).
  std::string_view dominant() const;
};

struct ServiceRunReport {
  std::uint64_t run_id = 0;
  std::string service;
  std::string pipeline;           // empty when the service hung
  sim::SimTime released = 0;
  sim::SimTime finished = 0;
  bool ok = false;
  bool deadline_met = false;
  bool was_hung = false;          // spent time in the hung queue first
  int failovers = 0;              // mid-run pipeline re-decisions taken
  bool infeasible = false;        // abandoned: no pipeline could ever fit

  // Critical-path attribution (fed to the health layer, core/health.hpp).
  SegmentBreakdown segments;
  /// Attributed wall time per remote tier (transfers + remote compute),
  /// keyed by net::to_string(tier).
  std::map<std::string, sim::SimDuration> tier_time;
  /// The tier implicated in this run's fate: the tier whose transfer or
  /// device failed when a failover/hang was involved, else the remote tier
  /// with the most attributed time, else "on-board".
  std::string implicated_tier;

  sim::SimDuration latency() const { return finished - released; }
};

struct ElasticOptions {
  Goal goal = Goal::kMinLatency;
  /// Radio power draw while transferring, watts (vehicle-side energy cost
  /// of offloading; §III-B energy accounting).
  double radio_power_w = 2.5;
  /// Safety factor applied to estimates before the deadline check.
  double estimate_margin = 1.0;
  /// When a task fails mid-run (its tier's link died, its device went
  /// offline), re-choose a pipeline under the *current* conditions and
  /// restart instead of failing the run. Bounded by max_failovers; when no
  /// pipeline fits anymore the run hangs and reevaluate()/abandon_hung()
  /// decide its fate.
  bool failover = false;
  int max_failovers = 3;
};

class ElasticManager {
 public:
  ElasticManager(sim::Simulator& sim, vcu::Dsf& dsf, net::Topology& topo,
                 ElasticOptions options = {});

  /// Registers the shared compute endpoint serving a remote tier (the RSU
  /// box, the base-station box, the cloud pool). Without one, pipelines
  /// touching that tier are infeasible.
  void set_remote_device(net::Tier tier, hw::ComputeDevice* device);

  /// Estimates every pipeline of `svc` under current conditions.
  std::vector<PipelineEstimate> estimate(const PolymorphicService& svc) const;

  /// Picks the best feasible pipeline per the configured goal; nullptr when
  /// none meets the service's deadline (→ hang up). The returned pointer
  /// aliases `svc.pipelines` — it is only valid while `svc` lives.
  const Pipeline* choose(const PolymorphicService& svc) const;

  /// Releases one execution of `svc`. If no pipeline is currently feasible
  /// the run is hung and retried at every reevaluate() until it fits.
  std::uint64_t run(const PolymorphicService& svc,
                    std::function<void(const ServiceRunReport&)> done = nullptr);

  /// Retries hung services (call when conditions change or periodically —
  /// "the service will be hung up until meeting requirements again").
  void reevaluate();

  /// Reports every hung run as infeasible (ok=false, infeasible=true) and
  /// clears the hung queue — the explicit give-up the chaos invariants
  /// require ("every offloaded DAG completes or is reported infeasible").
  /// Returns the number of runs abandoned.
  std::size_t abandon_hung();

  /// Observer called with every final ServiceRunReport (completions,
  /// failures and abandon_hung()), after the per-run `done` callback. The
  /// health layer (core/health.hpp) feeds its SLO evaluator from this.
  void set_run_observer(std::function<void(const ServiceRunReport&)> obs) {
    observer_ = std::move(obs);
  }

  /// Health-driven ranking penalty: choose() multiplies the score of any
  /// pipeline placing a task on `tier` by `factor` (>1 demotes it). The
  /// deadline feasibility gate stays on the honest estimate, so penalties
  /// steer the choice between feasible variants without hanging
  /// otherwise-feasible services.
  void set_tier_penalty(net::Tier tier, double factor);
  void clear_tier_penalty(net::Tier tier);
  double tier_penalty(net::Tier tier) const;
  const std::map<net::Tier, double>& tier_penalties() const {
    return penalties_;
  }

  std::size_t hung_count() const { return hung_.size(); }
  /// Runs currently executing (in-flight DAGs, excluding hung ones).
  std::size_t active_runs() const { return runs_.size(); }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t failovers() const { return failovers_; }

  ElasticOptions& options() { return options_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  struct Run {
    // Internal key into runs_. A failover restart gets a FRESH internal id
    // so stale device/transfer callbacks from the abandoned attempt find
    // nothing and no-op; public_id (what run() returned and reports carry)
    // survives restarts.
    std::uint64_t id = 0;
    std::uint64_t public_id = 0;
    PolymorphicService svc;
    Pipeline pipeline;
    sim::SimTime released = 0;
    std::vector<int> waiting_preds;
    int remaining = 0;
    bool failed = false;
    bool was_hung = false;
    int failovers = 0;
    std::function<void(const ServiceRunReport&)> done;
    // Open telemetry span for the whole service run; survives failover
    // restarts and hang/resume cycles (it follows public_id, not id).
    std::uint64_t telem_span = 0;
    // Segment accounting (carried across failovers and hang/resume).
    sim::SimTime attempt_started = 0;
    SegmentBreakdown seg;
    std::map<std::string, sim::SimDuration> tier_time;
    std::string failed_tier;  // tier of the most recent task/transfer failure
  };
  struct HungRun {
    std::uint64_t id;  // public id
    PolymorphicService svc;
    sim::SimTime released;
    std::function<void(const ServiceRunReport&)> done;
    int failovers = 0;
    std::uint64_t telem_span = 0;
    sim::SimTime hung_since = 0;
    SegmentBreakdown seg;
    std::map<std::string, sim::SimDuration> tier_time;
    std::string failed_tier;
  };

  sim::SimDuration transfer_estimate(net::Tier from, net::Tier to,
                                     std::uint64_t bytes, bool* ok) const;
  void start(std::unique_ptr<Run> run);
  void dispatch(Run& run, int task_id);
  void compute(Run& run, int task_id);
  void complete_task(std::uint64_t run_id, int task_id, bool ok);
  void failover(std::uint64_t run_id);
  void finish(Run& run);
  void transfer(net::Tier from, net::Tier to, std::uint64_t bytes,
                std::function<void(bool)> done);
  /// transfer() plus per-run segment accounting and a "net" trace slice.
  /// `done` runs only while the run is live, under the service's prof
  /// frame.
  void tracked_transfer(std::uint64_t run_id, net::Tier from, net::Tier to,
                        std::uint64_t bytes, std::function<void(bool)> done);
  double pipeline_penalty(const Pipeline& p) const;

  sim::Simulator& sim_;
  vcu::Dsf& dsf_;
  net::Topology& topo_;
  ElasticOptions options_;
  std::map<net::Tier, hw::ComputeDevice*> remote_;
  std::map<std::uint64_t, std::unique_ptr<Run>> runs_;
  std::vector<HungRun> hung_;
  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failovers_ = 0;
  std::function<void(const ServiceRunReport&)> observer_;
  std::map<net::Tier, double> penalties_;
};

}  // namespace vdap::edgeos
