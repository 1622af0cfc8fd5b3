#include "edgeos/elastic.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "telemetry/prof/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vdap::edgeos {

namespace {

// Opens the whole-service-run telemetry span ('b' on the "elastic" track).
std::uint64_t open_run_span(sim::SimTime now, const std::string& service,
                            std::uint64_t public_id,
                            const std::string& pipeline) {
  return telemetry::tracer().begin(
      now, "service", service, "elastic",
      telemetry::TraceArgs().add("pipeline", pipeline).add("run", public_id));
}

// The tier a run's fate is pinned on: an explicit failure wins, then the
// remote tier with the most attributed time, then the board itself.
std::string implicated_tier_of(
    const std::string& failed_tier,
    const std::map<std::string, sim::SimDuration>& tier_time) {
  if (!failed_tier.empty()) return failed_tier;
  std::string best = "on-board";
  sim::SimDuration most = 0;
  for (const auto& [tier, d] : tier_time) {
    if (d > most) {
      most = d;
      best = tier;
    }
  }
  return best;
}

}  // namespace

std::string_view SegmentBreakdown::dominant() const {
  std::string_view name = "compute";
  sim::SimDuration top = compute;
  if (queue > top) {
    top = queue;
    name = "queue";
  }
  if (network > top) {
    top = network;
    name = "net";
  }
  if (failover > top) {
    name = "failover";
  }
  return name;
}

ElasticManager::ElasticManager(sim::Simulator& sim, vcu::Dsf& dsf,
                               net::Topology& topo, ElasticOptions options)
    : sim_(sim), dsf_(dsf), topo_(topo), options_(options) {}

void ElasticManager::set_tier_penalty(net::Tier tier, double factor) {
  penalties_[tier] = factor;
}

void ElasticManager::clear_tier_penalty(net::Tier tier) {
  penalties_.erase(tier);
}

double ElasticManager::tier_penalty(net::Tier tier) const {
  auto it = penalties_.find(tier);
  return it == penalties_.end() ? 1.0 : it->second;
}

double ElasticManager::pipeline_penalty(const Pipeline& p) const {
  if (penalties_.empty()) return 1.0;
  double f = 1.0;
  for (net::Tier t : p.placement) {
    auto it = penalties_.find(t);
    if (it != penalties_.end()) f = std::max(f, it->second);
  }
  return f;
}

void ElasticManager::set_remote_device(net::Tier tier,
                                       hw::ComputeDevice* device) {
  if (tier == net::Tier::kOnBoard) {
    throw std::invalid_argument("on-board execution goes through DSF");
  }
  remote_[tier] = device;
}

sim::SimDuration ElasticManager::transfer_estimate(net::Tier from,
                                                   net::Tier to,
                                                   std::uint64_t bytes,
                                                   bool* ok) const {
  *ok = true;
  if (from == to || bytes == 0) return 0;
  sim::SimDuration total = 0;
  // tier→vehicle leg.
  if (from != net::Tier::kOnBoard) {
    if (!topo_.available(from)) {
      *ok = false;
      return 0;
    }
    total += topo_.downlink(from).estimate_reliable(bytes);
  }
  // vehicle→tier leg.
  if (to != net::Tier::kOnBoard) {
    if (!topo_.available(to)) {
      *ok = false;
      return 0;
    }
    total += topo_.uplink(to).estimate_reliable(bytes);
  }
  return total;
}

std::vector<PipelineEstimate> ElasticManager::estimate(
    const PolymorphicService& svc) const {
  std::string why;
  if (!svc.validate(&why)) {
    throw std::invalid_argument("polymorphic service invalid: " + why);
  }
  const workload::AppDag& dag = svc.dag;
  auto order = dag.topo_order();

  std::vector<PipelineEstimate> out;
  for (const Pipeline& p : svc.pipelines) {
    PipelineEstimate est;
    est.pipeline = p.name;
    est.feasible = true;
    std::vector<double> finish_s(static_cast<std::size_t>(dag.size()), 0.0);
    double energy = 0.0;

    for (int id : order) {
      if (!est.feasible) break;
      const workload::TaskSpec& t = dag.task(id);
      net::Tier tier = p.placement[static_cast<std::size_t>(id)];

      // Earliest time inputs are present at `tier`.
      double ready = 0.0;
      bool ok = true;
      if (dag.predecessors(id).empty()) {
        // Sensor data originates on the vehicle.
        sim::SimDuration xfer =
            transfer_estimate(net::Tier::kOnBoard, tier, t.input_bytes, &ok);
        if (!ok) {
          est.feasible = false;
          break;
        }
        ready = sim::to_seconds(xfer);
        if (tier != net::Tier::kOnBoard) {
          energy += options_.radio_power_w * sim::to_seconds(xfer);
        }
      } else {
        for (int pr : dag.predecessors(id)) {
          net::Tier pt = p.placement[static_cast<std::size_t>(pr)];
          sim::SimDuration xfer = transfer_estimate(
              pt, tier, dag.task(pr).output_bytes, &ok);
          if (!ok) break;
          if (pt != tier &&
              (pt == net::Tier::kOnBoard || tier == net::Tier::kOnBoard)) {
            energy += options_.radio_power_w * sim::to_seconds(xfer);
          }
          ready = std::max(ready,
                           finish_s[static_cast<std::size_t>(pr)] +
                               sim::to_seconds(xfer));
        }
        if (!ok) {
          est.feasible = false;
          break;
        }
      }

      // Execution estimate at the placement.
      double exec_s = -1.0;
      if (tier == net::Tier::kOnBoard) {
        auto cands = dsf_.registry().candidates(dag.name(), t.cls);
        sim::SimTime best = std::numeric_limits<sim::SimTime>::max();
        const hw::ComputeDevice* best_dev = nullptr;
        for (hw::ComputeDevice* d : cands) {
          auto f = d->estimate_finish(t.cls, t.gflop);
          if (f && *f < best) {
            best = *f;
            best_dev = d;
          }
        }
        if (best_dev != nullptr) {
          exec_s = sim::to_seconds(best - sim_.now());
          double tput = best_dev->spec().throughput(t.cls);
          double busy_s = t.gflop / tput;
          int slots = best_dev->spec().slots;
          energy += busy_s *
                    (best_dev->spec().max_power_w -
                     best_dev->spec().idle_power_w) /
                    (slots > 0 ? slots : 1);
        }
      } else {
        auto it = remote_.find(tier);
        if (it != remote_.end() && it->second != nullptr &&
            topo_.available(tier)) {
          auto f = it->second->estimate_finish(t.cls, t.gflop);
          if (f) exec_s = sim::to_seconds(*f - sim_.now());
        }
      }
      if (exec_s < 0.0) {
        est.feasible = false;
        break;
      }
      finish_s[static_cast<std::size_t>(id)] = ready + exec_s;
    }

    if (est.feasible) {
      // The result must land back on the vehicle.
      double end = 0.0;
      for (int s : dag.sinks()) {
        net::Tier tier = p.placement[static_cast<std::size_t>(s)];
        bool ok = true;
        sim::SimDuration xfer = transfer_estimate(
            tier, net::Tier::kOnBoard, dag.task(s).output_bytes, &ok);
        if (!ok) {
          est.feasible = false;
          break;
        }
        if (tier != net::Tier::kOnBoard) {
          energy += options_.radio_power_w * sim::to_seconds(xfer);
        }
        end = std::max(end, finish_s[static_cast<std::size_t>(s)] +
                                sim::to_seconds(xfer));
      }
      est.latency = sim::from_seconds(end * options_.estimate_margin);
      est.onboard_energy_j = energy;
    }
    out.push_back(est);
  }
  return out;
}

const Pipeline* ElasticManager::choose(const PolymorphicService& svc) const {
  auto ests = estimate(svc);
  const workload::QosSpec& qos = svc.dag.qos();
  const Pipeline* best = nullptr;
  double best_score = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < ests.size(); ++i) {
    const PipelineEstimate& e = ests[i];
    if (!e.feasible) continue;
    // The deadline gate uses the honest estimate; health penalties only
    // re-rank the feasible variants (so a breach steers, never hangs).
    if (qos.has_deadline() && e.latency > qos.deadline) continue;
    double score = options_.goal == Goal::kMinLatency
                       ? sim::to_seconds(e.latency)
                       : e.onboard_energy_j;
    score *= pipeline_penalty(svc.pipelines[i]);
    if (best == nullptr || score < best_score) {
      best = &svc.pipelines[i];
      best_score = score;
    }
  }
  return best;
}

std::uint64_t ElasticManager::run(
    const PolymorphicService& svc,
    std::function<void(const ServiceRunReport&)> done) {
  telemetry::prof::ProfScope scope(svc.dag.name());
  const Pipeline* choice = choose(svc);
  std::uint64_t id = next_id_++;
  if (choice == nullptr) {
    std::uint64_t span = 0;
    if (telemetry::on()) {
      span = open_run_span(sim_.now(), svc.dag.name(), id, "(hung)");
      telemetry::count("elastic.hung");
    }
    HungRun h;
    h.id = id;
    h.svc = svc;
    h.released = sim_.now();
    h.done = std::move(done);
    h.telem_span = span;
    h.hung_since = sim_.now();
    hung_.push_back(std::move(h));
    return id;
  }
  auto run = std::make_unique<Run>();
  run->id = id;
  run->public_id = id;
  run->svc = svc;
  run->pipeline = *choice;
  run->released = sim_.now();
  run->done = std::move(done);
  if (telemetry::on()) {
    run->telem_span =
        open_run_span(sim_.now(), svc.dag.name(), id, run->pipeline.name);
    telemetry::count("elastic.released",
                     {{"pipeline", run->pipeline.name}});
  }
  start(std::move(run));
  return id;
}

void ElasticManager::reevaluate() {
  std::vector<HungRun> still_hung;
  for (HungRun& h : hung_) {
    telemetry::prof::ProfScope scope(h.svc.dag.name());
    const Pipeline* choice = choose(h.svc);
    if (choice == nullptr) {
      still_hung.push_back(std::move(h));
      continue;
    }
    Pipeline chosen = *choice;  // copy: `choice` aliases h.svc.pipelines
    auto run = std::make_unique<Run>();
    run->id = next_id_++;
    run->public_id = h.id;
    run->svc = std::move(h.svc);
    run->pipeline = std::move(chosen);
    run->released = h.released;  // latency counts the hung time
    run->was_hung = true;
    run->failovers = h.failovers;
    run->done = std::move(h.done);
    run->telem_span = h.telem_span;
    run->seg = h.seg;
    run->tier_time = std::move(h.tier_time);
    run->failed_tier = std::move(h.failed_tier);
    sim::SimDuration waited = sim_.now() - h.hung_since;
    run->seg.queue += waited;
    if (telemetry::on() && waited > 0) {
      telemetry::tracer().complete(
          h.hung_since, waited, "segment", "queue", "elastic/segments",
          telemetry::TraceArgs().add("run", run->public_id));
    }
    if (telemetry::on()) {
      telemetry::tracer().instant(sim_.now(), "service", "elastic.resume",
                                  "elastic",
                                  telemetry::TraceArgs()
                                      .add("pipeline", run->pipeline.name)
                                      .add("run", run->public_id));
      telemetry::count("elastic.resumed");
    }
    start(std::move(run));
  }
  hung_ = std::move(still_hung);
}

std::size_t ElasticManager::abandon_hung() {
  std::vector<HungRun> hung = std::move(hung_);
  hung_.clear();
  for (HungRun& h : hung) {
    ServiceRunReport rep;
    rep.run_id = h.id;
    rep.service = h.svc.dag.name();
    rep.released = h.released;
    rep.finished = sim_.now();
    rep.ok = false;
    rep.was_hung = true;
    rep.infeasible = true;
    rep.failovers = h.failovers;
    rep.segments = h.seg;
    rep.segments.queue += sim_.now() - h.hung_since;
    rep.tier_time = std::move(h.tier_time);
    rep.implicated_tier = implicated_tier_of(h.failed_tier, rep.tier_time);
    ++failed_;
    if (telemetry::on()) {
      sim::SimDuration waited = sim_.now() - h.hung_since;
      if (waited > 0) {
        telemetry::tracer().complete(h.hung_since, waited, "segment", "queue",
                                     "elastic/segments",
                                     telemetry::TraceArgs().add("run", h.id));
      }
      if (h.telem_span != 0) {
        telemetry::tracer().end(sim_.now(), h.telem_span,
                                telemetry::TraceArgs().add("infeasible", true));
      }
      telemetry::count("elastic.abandoned");
      telemetry::count("elastic.runs",
                       {{"service", rep.service}, {"ok", "false"}});
    }
    if (h.done) h.done(rep);
    if (observer_) observer_(rep);
  }
  return hung.size();
}

void ElasticManager::start(std::unique_ptr<Run> run) {
  Run& r = *run;
  r.attempt_started = sim_.now();
  const workload::AppDag& dag = r.svc.dag;
  r.remaining = dag.size();
  r.waiting_preds.resize(static_cast<std::size_t>(dag.size()));
  for (int i = 0; i < dag.size(); ++i) {
    r.waiting_preds[static_cast<std::size_t>(i)] =
        static_cast<int>(dag.predecessors(i).size());
  }
  std::uint64_t id = r.id;
  std::vector<int> sources = r.svc.dag.sources();
  runs_[id] = std::move(run);
  for (int src : sources) {
    // dispatch() can fail synchronously and finalize (erase) the run.
    auto it = runs_.find(id);
    if (it == runs_.end()) break;
    dispatch(*it->second, src);
  }
}

void ElasticManager::transfer(net::Tier from, net::Tier to,
                              std::uint64_t bytes,
                              std::function<void(bool)> done) {
  if (from == to || bytes == 0) {
    done(true);
    return;
  }
  auto up_leg = [this, to, bytes, done](bool ok) {
    if (!ok || to == net::Tier::kOnBoard) {
      done(ok);
      return;
    }
    topo_.transfer_up(to, bytes, [done](const net::TransferOutcome& o) {
      done(o.delivered);
    });
  };
  if (from != net::Tier::kOnBoard) {
    topo_.transfer_down(from, bytes,
                        [up_leg](const net::TransferOutcome& o) {
                          up_leg(o.delivered);
                        });
  } else {
    up_leg(true);
  }
}

void ElasticManager::tracked_transfer(std::uint64_t run_id, net::Tier from,
                                      net::Tier to, std::uint64_t bytes,
                                      std::function<void(bool)> done) {
  sim::SimTime t0 = sim_.now();
  transfer(from, to, bytes,
           [this, run_id, from, to, t0, done = std::move(done)](bool ok) {
             auto it = runs_.find(run_id);
             if (it == runs_.end()) return;
             Run& r = *it->second;
             telemetry::prof::ProfScope scope(r.svc.dag.name());
             sim::SimDuration d = sim_.now() - t0;
             r.seg.network += d;
             // Attribute the wall time (and any failure) to the remote
             // endpoint; for a remote→remote edge, the `from` leg runs
             // first and gets the blame.
             net::Tier remote = from != net::Tier::kOnBoard ? from : to;
             if (remote != net::Tier::kOnBoard) {
               r.tier_time[std::string(net::to_string(remote))] += d;
               if (!ok) r.failed_tier = std::string(net::to_string(remote));
             }
             if (from != net::Tier::kOnBoard && to != net::Tier::kOnBoard &&
                 from != to) {
               r.tier_time[std::string(net::to_string(to))] += d;
             }
             if (telemetry::on() && d > 0) {
               telemetry::TraceArgs args;
               if (!ok) args.add("failed", true);
               args.add("run", r.public_id).add("tier", net::to_string(remote));
               telemetry::tracer().complete(t0, d, "segment", "net",
                                            "elastic/segments",
                                            std::move(args));
             }
             done(ok);
           });
}

void ElasticManager::dispatch(Run& run, int task_id) {
  const workload::TaskSpec& t = run.svc.dag.task(task_id);
  net::Tier tier = run.pipeline.placement[static_cast<std::size_t>(task_id)];
  std::uint64_t id = run.id;
  if (run.svc.dag.predecessors(task_id).empty() &&
      tier != net::Tier::kOnBoard) {
    // Ship the sensor input up before computing.
    tracked_transfer(id, net::Tier::kOnBoard, tier, t.input_bytes,
                     [this, id, task_id](bool ok) {
                       auto it = runs_.find(id);
                       if (it == runs_.end()) return;
                       if (!ok) {
                         complete_task(id, task_id, false);
                       } else {
                         compute(*it->second, task_id);
                       }
                     });
  } else {
    compute(run, task_id);
  }
}

void ElasticManager::compute(Run& run, int task_id) {
  const workload::TaskSpec& t = run.svc.dag.task(task_id);
  net::Tier tier = run.pipeline.placement[static_cast<std::size_t>(task_id)];
  std::uint64_t id = run.id;

  hw::ComputeDevice* dev = nullptr;
  if (tier == net::Tier::kOnBoard) {
    auto cands = dsf_.registry().candidates(run.svc.dag.name(), t.cls);
    sim::SimTime best = std::numeric_limits<sim::SimTime>::max();
    for (hw::ComputeDevice* d : cands) {
      auto f = d->estimate_finish(t.cls, t.gflop);
      if (f && *f < best) {
        best = *f;
        dev = d;
      }
    }
  } else {
    auto it = remote_.find(tier);
    dev = it != remote_.end() ? it->second : nullptr;
  }
  if (dev == nullptr) {
    auto it = runs_.find(id);
    if (it != runs_.end() && tier != net::Tier::kOnBoard) {
      it->second->failed_tier = std::string(net::to_string(tier));
    }
    complete_task(id, task_id, false);
    return;
  }
  dev->submit({t.cls, t.gflop, run.svc.dag.qos().priority,
               [this, id, task_id, tier](const hw::WorkReport& rep) {
                 auto it = runs_.find(id);
                 if (it == runs_.end()) return;
                 Run& r = *it->second;
                 telemetry::prof::ProfScope scope(r.svc.dag.name());
                 sim::SimDuration d = rep.finished - rep.submitted;
                 r.seg.compute += d;
                 if (tier != net::Tier::kOnBoard) {
                   r.tier_time[std::string(net::to_string(tier))] += d;
                   if (!rep.ok) {
                     r.failed_tier = std::string(net::to_string(tier));
                   }
                 }
                 if (telemetry::on() && d > 0) {
                   telemetry::tracer().complete(
                       rep.submitted, d, "segment", "compute",
                       "elastic/segments",
                       telemetry::TraceArgs()
                           .add("device", rep.device)
                           .add("run", r.public_id)
                           .add("tier", net::to_string(tier)));
                 }
                 complete_task(id, task_id, rep.ok);
               }});
}

void ElasticManager::complete_task(std::uint64_t run_id, int task_id,
                                   bool ok) {
  auto it = runs_.find(run_id);
  if (it == runs_.end()) return;
  Run& run = *it->second;
  const workload::AppDag& dag = run.svc.dag;
  net::Tier tier = run.pipeline.placement[static_cast<std::size_t>(task_id)];

  if (!ok && !run.failed && options_.failover &&
      run.failovers < options_.max_failovers) {
    // First failure of this attempt: re-decide under current conditions
    // instead of failing the whole run. failover() erases run_id, so any
    // other in-flight callbacks of this attempt no-op.
    failover(run_id);
    return;
  }
  if (!ok && !run.failed) {
    run.failed = true;
  }

  // Sinks ship their result back to the vehicle before counting complete.
  bool is_sink = dag.successors(task_id).empty();
  if (ok && is_sink && tier != net::Tier::kOnBoard) {
    std::uint64_t bytes = dag.task(task_id).output_bytes;
    // Re-enter completion with the tier rewritten so we don't loop.
    tracked_transfer(run_id, tier, net::Tier::kOnBoard, bytes,
                     [this, run_id, task_id](bool delivered) {
                       auto rit = runs_.find(run_id);
                       if (rit == runs_.end()) return;
                       Run& r = *rit->second;
                       r.pipeline.placement[static_cast<std::size_t>(task_id)] =
                           net::Tier::kOnBoard;
                       complete_task(run_id, task_id, delivered);
                     });
    return;
  }

  --run.remaining;
  if (ok && !run.failed) {
    std::vector<int> ready;
    for (int s : dag.successors(task_id)) {
      int& waiting = run.waiting_preds[static_cast<std::size_t>(s)];
      if (--waiting == 0) ready.push_back(s);
    }
    std::uint64_t rid = run.id;
    for (int s : ready) {
      // A synchronous failure inside dispatch/complete can finalize (erase)
      // the run; re-resolve it every iteration.
      auto rit = runs_.find(rid);
      if (rit == runs_.end()) return;
      Run& r = *rit->second;
      // Pay the tier-crossing transfer on the slowest edge, then dispatch.
      net::Tier st = r.pipeline.placement[static_cast<std::size_t>(s)];
      if (st != tier) {
        std::uint64_t bytes = r.svc.dag.task(task_id).output_bytes;
        tracked_transfer(rid, tier, st, bytes, [this, rid, s](bool delivered) {
          auto rit2 = runs_.find(rid);
          if (rit2 == runs_.end()) return;
          if (!delivered) {
            complete_task(rid, s, false);
          } else {
            dispatch(*rit2->second, s);
          }
        });
      } else {
        dispatch(r, s);
      }
    }
    if (runs_.find(rid) == runs_.end()) return;
  } else if (!ok) {
    // Retire never-started tasks so the run can finalize (mirrors DSF).
    for (int i = 0; i < dag.size(); ++i) {
      if (run.waiting_preds[static_cast<std::size_t>(i)] > 0) {
        run.waiting_preds[static_cast<std::size_t>(i)] = -1;
        --run.remaining;
      }
    }
  }

  if (run.remaining <= 0) finish(run);
}

void ElasticManager::failover(std::uint64_t run_id) {
  auto it = runs_.find(run_id);
  if (it == runs_.end()) return;
  std::unique_ptr<Run> old = std::move(it->second);
  runs_.erase(it);
  ++failovers_;
  // The whole abandoned attempt is failover-wasted time; the net/compute
  // accounted inside it stays too (sums attribute, they don't partition).
  sim::SimDuration wasted = sim_.now() - old->attempt_started;
  old->seg.failover += wasted;
  const Pipeline* choice = choose(old->svc);
  if (telemetry::on()) {
    if (wasted > 0) {
      telemetry::TraceArgs seg_args;
      seg_args.add("run", old->public_id);
      if (!old->failed_tier.empty()) seg_args.add("tier", old->failed_tier);
      telemetry::tracer().complete(old->attempt_started, wasted, "segment",
                                   "failover", "elastic/segments",
                                   std::move(seg_args));
    }
    telemetry::tracer().instant(
        sim_.now(), "service", "elastic.failover", "elastic",
        telemetry::TraceArgs()
            .add("failovers", old->failovers + 1)
            .add("rechosen", choice != nullptr ? choice->name : "(hung)")
            .add("run", old->public_id));
    telemetry::count("elastic.failovers");
  }
  if (choice == nullptr) {
    // Nothing fits right now: park it; reevaluate() retries when
    // conditions change, abandon_hung() reports it infeasible.
    HungRun h;
    h.id = old->public_id;
    h.svc = std::move(old->svc);
    h.released = old->released;
    h.done = std::move(old->done);
    h.failovers = old->failovers + 1;
    h.telem_span = old->telem_span;
    h.hung_since = sim_.now();
    h.seg = old->seg;
    h.tier_time = std::move(old->tier_time);
    h.failed_tier = std::move(old->failed_tier);
    hung_.push_back(std::move(h));
    return;
  }
  Pipeline chosen = *choice;  // copy before svc moves out from under it
  auto run = std::make_unique<Run>();
  run->id = next_id_++;
  run->public_id = old->public_id;
  run->svc = std::move(old->svc);
  run->pipeline = std::move(chosen);
  run->released = old->released;  // latency spans the whole ordeal
  run->was_hung = old->was_hung;
  run->failovers = old->failovers + 1;
  run->done = std::move(old->done);
  run->telem_span = old->telem_span;
  run->seg = old->seg;
  run->tier_time = std::move(old->tier_time);
  run->failed_tier = std::move(old->failed_tier);
  start(std::move(run));
}

void ElasticManager::finish(Run& run) {
  ServiceRunReport rep;
  rep.run_id = run.public_id;
  rep.service = run.svc.dag.name();
  rep.pipeline = run.pipeline.name;
  rep.released = run.released;
  rep.finished = sim_.now();
  rep.ok = !run.failed;
  rep.was_hung = run.was_hung;
  rep.failovers = run.failovers;
  const workload::QosSpec& qos = run.svc.dag.qos();
  rep.deadline_met =
      rep.ok && (!qos.has_deadline() || rep.latency() <= qos.deadline);
  rep.segments = run.seg;
  rep.tier_time = run.tier_time;
  rep.implicated_tier = implicated_tier_of(run.failed_tier, run.tier_time);
  if (rep.ok) {
    ++completed_;
  } else {
    ++failed_;
  }
  if (telemetry::on()) {
    if (run.telem_span != 0) {
      telemetry::TraceArgs args;
      args.add("deadline_met", rep.deadline_met);
      if (rep.failovers > 0) args.add("failovers", rep.failovers);
      args.add("latency_ms", sim::to_millis(rep.latency()))
          .add("ok", rep.ok)
          .add("pipeline", rep.pipeline);
      telemetry::tracer().end(sim_.now(), run.telem_span, std::move(args));
    }
    telemetry::count(rep.ok ? "elastic.completed" : "elastic.failed");
    telemetry::count("elastic.runs", {{"service", rep.service},
                                      {"ok", rep.ok ? "true" : "false"}});
    telemetry::observe("elastic.latency_ms", {{"service", rep.service}},
                       sim::to_millis(rep.latency()));
  }
  auto done = std::move(run.done);
  runs_.erase(run.id);
  if (done) done(rep);
  if (observer_) observer_(rep);
}

}  // namespace vdap::edgeos
