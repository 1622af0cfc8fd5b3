#include "vcu/dsf.hpp"

#include <stdexcept>

#include "telemetry/prof/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vdap::vcu {

Dsf::Dsf(sim::Simulator& sim, ResourceRegistry& registry,
         std::unique_ptr<Scheduler> scheduler, DsfOptions options)
    : sim_(sim),
      registry_(registry),
      scheduler_(std::move(scheduler)),
      options_(options) {
  if (!scheduler_) throw std::invalid_argument("dsf needs a scheduler");
}

std::uint64_t Dsf::submit(const workload::AppDag& dag, Callback done) {
  std::string why;
  if (!dag.validate(&why)) {
    throw std::invalid_argument("dag '" + dag.name() + "': " + why);
  }
  auto inst = std::make_unique<Instance>();
  inst->id = next_instance_++;
  inst->dag = options_.enable_partitioning
                  ? partition(dag, options_.partition_policy)
                  : dag;
  inst->released = sim_.now();
  inst->done = std::move(done);
  const int n = inst->dag.size();
  inst->remaining = n;
  inst->waiting_preds.resize(static_cast<std::size_t>(n));
  inst->records.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    inst->waiting_preds[static_cast<std::size_t>(i)] =
        static_cast<int>(inst->dag.predecessors(i).size());
    inst->records[static_cast<std::size_t>(i)].task_id = i;
    inst->records[static_cast<std::size_t>(i)].task = inst->dag.task(i).name;
  }

  ++submitted_;
  profiles_[dag.name()].app = dag.name();
  profiles_[dag.name()].released++;

  if (telemetry::on()) {
    telemetry::Tracer& tr = telemetry::tracer();
    inst->telem_span = tr.begin(sim_.now(), "task", dag.name(), "dsf",
                                telemetry::TraceArgs()
                                    .add("instance", inst->id)
                                    .add("scheduler", scheduler_->name())
                                    .add("tasks", n));
    telemetry::count("dsf.submitted", {{"app", dag.name()}});
    if (options_.enable_partitioning && n != dag.size()) {
      tr.instant(sim_.now(), "task", "partition:" + dag.name(), "dsf",
                 telemetry::TraceArgs()
                     .add("tasks_in", dag.size())
                     .add("tasks_out", n));
    }
  }

  scheduler_->on_release(inst->dag, inst->id);

  std::uint64_t id = inst->id;
  std::vector<int> sources = inst->dag.sources();
  instances_[id] = std::move(inst);
  for (int src : sources) {
    // dispatch() can fail synchronously and finalize (erase) the instance;
    // re-resolve it for every source.
    auto it = instances_.find(id);
    if (it == instances_.end()) break;
    dispatch(*it->second, src);
  }
  return id;
}

void Dsf::dispatch(Instance& inst, int task_id) {
  const workload::TaskSpec& t = inst.dag.task(task_id);
  TaskRecord& rec = inst.records[static_cast<std::size_t>(task_id)];
  ++rec.attempts;
  rec.submitted = sim_.now();

  if (telemetry::on()) {
    telemetry::count("vcu.place", {{"policy", scheduler_->name()}});
    if (rec.attempts > 1) telemetry::count("dsf.task_retries");
  }

  PlacementQuery q;
  q.dag = &inst.dag;
  q.instance = inst.id;
  q.task_id = task_id;
  q.candidates = registry_.candidates(inst.dag.name(), t.cls);
  hw::ComputeDevice* dev = scheduler_->place(q);
  std::uint64_t id = inst.id;
  if (dev == nullptr) {
    // No capable device on board: surface the failure through the normal
    // completion path so the caller (e.g. the elastic manager) can react.
    if (telemetry::on()) telemetry::count("dsf.placement_failed");
    inst.failed = true;
    hw::WorkReport rep;
    rep.submitted = rep.started = rep.finished = sim_.now();
    rep.ok = false;
    on_task_done(id, task_id, rep);
    return;
  }
  rec.device = dev->name();
  dev->submit({t.cls, t.gflop, inst.dag.qos().priority,
               [this, id, task_id](const hw::WorkReport& rep) {
                 on_task_done(id, task_id, rep);
               }});
}

void Dsf::on_task_done(std::uint64_t instance_id, int task_id,
                       const hw::WorkReport& rep) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) return;  // instance already finalized
  Instance& inst = *it->second;
  telemetry::prof::ProfScope scope(inst.dag.name());
  TaskRecord& rec = inst.records[static_cast<std::size_t>(task_id)];

  if (!rep.ok && !inst.failed &&
      rec.attempts < options_.max_task_retries) {
    // Device aborted (went offline / left the registry): retry elsewhere.
    dispatch(inst, task_id);
    return;
  }

  rec.started = rep.started;
  rec.finished = rep.finished;
  rec.ok = rep.ok;
  --inst.remaining;

  if (telemetry::on() && !rec.device.empty()) {
    telemetry::Tracer& tr = telemetry::tracer();
    telemetry::TraceArgs args;
    if (rec.attempts > 1) args.add("attempts", rec.attempts);
    args.add("instance", instance_id).add("ok", rep.ok);
    tr.complete(rep.started, rep.finished - rep.started, "task", rec.task,
                "vcu/" + rec.device, std::move(args));
    telemetry::observe("dsf.task_ms", {{"device", rec.device}},
                       sim::to_millis(rep.finished - rep.started));
  }

  if (rep.ok && !inst.failed) {
    std::vector<int> ready;
    for (int s : inst.dag.successors(task_id)) {
      if (--inst.waiting_preds[static_cast<std::size_t>(s)] == 0) {
        ready.push_back(s);
      }
    }
    for (int s : ready) {
      // A synchronous dispatch failure can finalize (erase) the instance;
      // re-resolve it for every ready successor.
      auto rit = instances_.find(instance_id);
      if (rit == instances_.end()) return;
      dispatch(*rit->second, s);
    }
    // The instance may have been finalized by a failing successor above.
    if (instances_.find(instance_id) == instances_.end()) return;
  } else if (!rep.ok) {
    // The instance cannot succeed anymore. Retire every task that was never
    // dispatched; tasks already running report later through this same path
    // (their successors are covered by this retirement).
    inst.failed = true;
    for (int i = 0; i < inst.dag.size(); ++i) {
      TaskRecord& r = inst.records[static_cast<std::size_t>(i)];
      if (r.attempts == 0) {
        r.attempts = -1;  // mark retired so a second failure skips it
        --inst.remaining;
      }
    }
  }

  if (inst.remaining <= 0) finish(inst);
}

void Dsf::finish(Instance& inst) {
  DagRun run;
  run.instance = inst.id;
  run.app = inst.dag.name();
  run.released = inst.released;
  run.finished = sim_.now();
  run.ok = !inst.failed;
  const workload::QosSpec& qos = inst.dag.qos();
  run.deadline_met =
      !qos.has_deadline() || (run.latency() <= qos.deadline && run.ok);
  run.tasks = std::move(inst.records);

  ApplicationProfile& prof = profiles_[run.app];
  if (run.ok) {
    ++prof.completed;
    prof.latency_ms.add(sim::to_millis(run.latency()));
    if (!run.deadline_met) ++prof.deadline_misses;
    ++completed_;
  } else {
    ++prof.failed;
    ++failed_;
  }

  if (telemetry::on()) {
    if (inst.telem_span != 0) {
      telemetry::tracer().end(
          sim_.now(), inst.telem_span,
          telemetry::TraceArgs()
              .add("deadline_met", run.deadline_met)
              .add("latency_ms", sim::to_millis(run.latency()))
              .add("ok", run.ok));
    }
    telemetry::count(run.ok ? "dsf.completed" : "dsf.failed");
    telemetry::observe("dsf.latency_ms", {{"app", run.app}},
                       sim::to_millis(run.latency()));
  }

  scheduler_->on_complete(inst.id);
  Callback done = std::move(inst.done);
  instances_.erase(inst.id);
  if (done) done(run);
}

}  // namespace vdap::vcu
