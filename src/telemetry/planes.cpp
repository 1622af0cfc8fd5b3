#include "telemetry/planes.hpp"

#include "telemetry/export.hpp"

namespace vdap::telemetry {

Planes::Planes(const ObsOptions& opts, int shards, int threads)
    : shards_(shards) {
  if (opts.capture) capture_ = std::make_unique<DomainSet>(shards);
  if (opts.flight) {
    flight_ = std::make_unique<FlightRecorder>(shards + 1, opts.flight_opts);
  }
  if (opts.prof) {
    prof_ = std::make_unique<prof::Profiler>(
        static_cast<std::size_t>(shards) + 1 +
            static_cast<std::size_t>(threads),
        opts.prof_opts);
    prof_->start();
  }
}

Binding Planes::shard(int i) {
  return Binding{capture_ ? capture_->shard_domain(i) : nullptr,
                 flight_ ? &flight_->ring(i) : nullptr,
                 prof_ ? prof_->slot(static_cast<std::size_t>(i)) : nullptr};
}

Binding Planes::coordinator(sim::SimTime now) {
  FlightRing* ring = nullptr;
  if (flight_) {
    ring = &flight_->ring(shards_);
    ring->set_time_hint(now);
  }
  return Binding{
      capture_ ? capture_->coordinator_domain() : nullptr, ring,
      prof_ ? prof_->slot(static_cast<std::size_t>(shards_)) : nullptr};
}

prof::ProfSlot* Planes::worker_slot(std::size_t w) {
  return prof_ ? prof_->slot(static_cast<std::size_t>(shards_) + 1 + w)
               : nullptr;
}

prof::ProfSlot* Planes::coordinator_slot() {
  return prof_ ? prof_->slot(static_cast<std::size_t>(shards_)) : nullptr;
}

void Planes::barrier(sim::SimTime epoch_end) {
  if (capture_) {
    PROF_SCOPE("sim/merge");
    capture_->merge_epoch();
  }
  // Every scratch ring folds into the master ring in canonical content
  // order — race-free and deterministic with the shards quiesced.
  if (flight_) {
    PROF_SCOPE("flight/fold");
    flight_->fold_barrier(epoch_end);
  }
}

void Planes::collect(sim::SimTime now, ObsArtifacts& out) {
  // The final barrier and the exports run on the calling thread: sample
  // them on the coordinator's slot. Only the prof binding changes.
  prof::ProfSlot* const prev_prof =
      prof::bind_prof(prof_ ? coordinator_slot() : prof::bound_prof());
  barrier(now);  // anything recorded after the last epoch barrier
  if (capture_) {
    PROF_SCOPE("capture/export");
    out.chrome_trace = capture_->chrome_trace();
    const MetricsRegistry merged = capture_->merged_metrics();
    out.metrics_jsonl = metrics_snapshot_json(merged, now);
    out.metrics_jsonl += '\n';
    out.trace_events = capture_->events();
    out.open_spans = capture_->open_spans();
    out.metric_keys = merged.counters().all().size() + merged.gauges().size() +
                      merged.histograms().size();
  }
  if (flight_) {
    out.flight_folded = flight_->folded_records();
    out.flight_triggers = flight_->triggers_seen();
    out.flight_scratch_dropped = flight_->scratch_dropped();
    out.flight_rings = flight_->serialize_rings();
    out.flight_bundles = flight_->bundles();
  }
  prof::bind_prof(prev_prof);
  if (prof_) {
    prof_->stop();
    const prof::ProfileData pd = prof_->collect();
    out.profile_jsonl = prof::profile_jsonl(pd);
    out.profile_folded = prof::profile_folded(pd);
    out.prof_samples = pd.samples;
  }
}

CoordinatorProfScope::CoordinatorProfScope(Planes& planes,
                                           std::string_view tag)
    : slot_(planes.coordinator_slot()) {
  if (slot_ == nullptr) return;
  prev_ = prof::bind_prof(slot_);
  slot_->push(prof::intern_tag(tag));
}

void CoordinatorProfScope::end() {
  if (slot_ == nullptr) return;
  slot_->pop();
  prof::bind_prof(prev_);
  slot_ = nullptr;
}

}  // namespace vdap::telemetry
