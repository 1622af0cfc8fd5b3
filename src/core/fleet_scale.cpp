#include "core/fleet_scale.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "net/topology.hpp"
#include "sim/sharded.hpp"
#include "telemetry/shard_report.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vdap::core {

namespace fleet = telemetry::fleet;

FleetScaleOutcome run_fleet_scale(const FleetScaleConfig& config) {
  const int n = std::max(config.vehicles, 1);
  const int nshards = std::clamp(config.shards, 1, n);
  const int per_tick = std::max(config.samples_per_tick, 1);

  // The simulator owns the observability planes (DESIGN.md §6h–§6j).
  // World setup is sampled as "fleet/setup" on the coordinator's prof
  // slot and stays unbound for capture and flight.
  sim::ShardedSimulator ssim(
      config.seed, sim::ShardedSimulator::Options{nshards, config.threads,
                                                  config.epoch, config});
  telemetry::CoordinatorProfScope setup(ssim.planes(), "fleet/setup");

  std::vector<std::unique_ptr<net::Topology>> topos;
  for (int s = 0; s < nshards; ++s) {
    topos.push_back(std::make_unique<net::Topology>(ssim.shard(s)));
  }

  // Optional hosted ingest backend: one ingest shard per sim shard, fed
  // from the deliver callbacks (each vehicle's frames land on its home
  // shard's thread), MAD detection at every epoch barrier. Leaves the
  // digest path untouched.
  std::unique_ptr<fleet::ShardedIngestBackend> backend;
  if (config.ingest_backend) {
    fleet::IngestOptions iopts = config.ingest;
    iopts.shards = nshards;
    iopts.threads = 1;  // driven by the sim threads
    backend = std::make_unique<fleet::ShardedIngestBackend>(iopts);
    ssim.set_epoch_sink([b = backend.get()](
                            sim::SimTime, std::vector<sim::ShardMessage>&&) {
      b->barrier();
    });
  }

  // Flight recorder (DESIGN.md §6i). The manifest context deliberately
  // excludes shards/threads — bundle bytes must not depend on execution
  // geometry.
  if (telemetry::FlightRecorder* flight = ssim.planes().flight()) {
    json::Object cj;
    cj["vehicles"] = static_cast<std::int64_t>(n);
    cj["run_until"] = config.run_until;
    cj["drain"] = config.drain;
    cj["sample_period"] = config.sample_period;
    cj["samples_per_tick"] = static_cast<std::int64_t>(per_tick);
    cj["ingest_backend"] = config.ingest_backend;
    cj["capture"] = config.capture;
    flight->set_context(config.seed, "fleet-scale",
                        json::Value(std::move(cj)));
    if (backend != nullptr) {
      flight->set_manifest_hook([b = backend.get()](json::Object& m) {
        m["ingest_anomalies"] =
            static_cast<std::int64_t>(b->anomalies().size());
      });
    }
    if (config.flight_incident_at > 0) {
      // Sim-clock trigger on shard 0: the bundle it snapshots is a pure
      // function of (seed, config), identical across the matrix.
      ssim.shard(0).at(config.flight_incident_at, [] {
        telemetry::incident("scripted", "fleet-scale");
      });
    }
  }

  // All vehicle state lives in one flat vector sized up front, so the
  // deliver callbacks' pointers stay valid and each slot is touched only
  // by its home shard's thread.
  struct VehicleState {
    std::uint64_t digest = util::kFnv1aBasis;  // frames in delivery order
    std::unique_ptr<fleet::TelemetryShipper> shipper;
    util::RngStream* load = nullptr;  // the producer's draws
    sim::Simulator::PeriodicHandle tick;
  };
  std::vector<VehicleState> vehicles(static_cast<std::size_t>(n));

  for (int i = 0; i < n; ++i) {
    const int s = ssim.shard_of(static_cast<std::uint64_t>(i));
    sim::Simulator& shard_sim = ssim.shard(s);
    VehicleState* v = &vehicles[static_cast<std::size_t>(i)];
    // Shard-local aggregation: the digest folds each frame's bytes on the
    // delivering shard's thread, no cross-shard traffic in the hot loop;
    // the shipper's stats count the frames and samples it delivered.
    // `[v, ingest]` fits std::function's local buffer.
    fleet::IngestShard* ingest =
        backend != nullptr ? &backend->shard(s) : nullptr;
    v->shipper = std::make_unique<fleet::TelemetryShipper>(
        shard_sim, util::format("cav-%d", i), *topos[static_cast<std::size_t>(s)],
        [v, ingest](const std::string& bytes) {
          PROF_SCOPE("fleet/deliver");
          v->digest = util::fnv1a_add(v->digest, bytes);
          if (ingest != nullptr) ingest->ingest_line(bytes);
        },
        config.shipper);
    v->shipper->start();

    // Per-vehicle stream name ⇒ the draw sequence depends only on
    // (seed, i), never on which shard hosts the vehicle.
    v->load = &shard_sim.rng(util::format("scale.load/%d", i));
    const sim::SimDuration phase =
        sim::usec(137) * (i % 97);  // de-synchronize tick timestamps
    // `[v, per_tick]` fits std::function's local buffer.
    v->tick = shard_sim.every(
        config.sample_period,
        [v, per_tick]() {
          for (int k = 0; k < per_tick; ++k) {
            v->shipper->observe("svc.latency_ms",
                                v->load->normal_min(25.0, 8.0, 0.1));
          }
          v->shipper->count("svc.samples", per_tick);
        },
        phase);
  }

  setup.end();
  if (config.prepare) config.prepare(ssim);

  FleetScaleOutcome out;
  out.vehicles = n;
  out.shards = nshards;
  out.threads = ssim.threads();

  out.events_fired += ssim.run_until(config.run_until);
  // Quiesced at an epoch barrier: stop the producers, cut the final
  // frames, then drain the transport. What this section records (flush
  // counters) goes to the coordinator's planes; counters sum identically
  // no matter which domain records them, so geometry invariance holds.
  {
    telemetry::BindScope bind(ssim.planes().coordinator(ssim.now()));
    for (VehicleState& v : vehicles) {
      v.tick.stop();
      v.shipper->stop();
      v.shipper->flush_now();
    }
  }
  out.events_fired += ssim.run_until(config.run_until + config.drain);
  out.epochs = ssim.epochs_run();

  std::uint64_t digest = util::kFnv1aBasis;
  for (int i = 0; i < n; ++i) {
    const VehicleState& v = vehicles[static_cast<std::size_t>(i)];
    const fleet::TelemetryShipper::Stats& st = v.shipper->stats();
    out.frames_delivered += st.frames_acked;
    out.samples_delivered += st.samples_acked;
    out.frames_enqueued += st.frames_enqueued;
    out.frames_dropped += st.frames_dropped;
    out.wire_bytes += st.wire_bytes;
    digest = util::fnv1a_add_u64(digest, static_cast<std::uint64_t>(i));
    digest = util::fnv1a_add_u64(digest, v.digest);
  }
  out.digest = digest;
  if (backend != nullptr) {
    out.decode_errors = backend->decode_errors();
    out.frames_ingested = backend->frames_ingested();
    out.samples_ingested = backend->samples_ingested();
    out.ingest_anomalies = backend->anomalies().size();
    out.detect_passes = backend->detect_passes();
    out.detect_scanned = backend->detect_scanned();
    out.ingest_summary = util::format(
        "fleet-scale ingest frames=%llu samples=%llu anomalies=%llu "
        "detect_passes=%llu detect_scanned=%llu",
        static_cast<unsigned long long>(out.frames_ingested),
        static_cast<unsigned long long>(out.samples_ingested),
        static_cast<unsigned long long>(out.ingest_anomalies),
        static_cast<unsigned long long>(out.detect_passes),
        static_cast<unsigned long long>(out.detect_scanned));
  }
  out.summary = util::format(
      "fleet-scale vehicles=%d frames=%llu samples=%llu bytes=%llu "
      "dropped=%llu decode_errors=%llu digest=%016llx",
      n, static_cast<unsigned long long>(out.frames_delivered),
      static_cast<unsigned long long>(out.samples_delivered),
      static_cast<unsigned long long>(out.wire_bytes),
      static_cast<unsigned long long>(out.frames_dropped),
      static_cast<unsigned long long>(out.decode_errors),
      static_cast<unsigned long long>(out.digest));

  ssim.planes().collect(ssim.now(), out);
  out.shards_jsonl = shards_report(ssim, backend.get());
  return out;
}

std::string shards_report(sim::ShardedSimulator& ssim,
                          const fleet::ShardedIngestBackend* backend) {
  telemetry::FlightRecorder* flight = ssim.planes().flight();
  std::vector<telemetry::ShardRuntimeRow> rows;
  rows.reserve(static_cast<std::size_t>(ssim.shards()));
  for (int s = 0; s < ssim.shards(); ++s) {
    const sim::ShardedSimulator::ShardRuntime& rt =
        ssim.runtime()[static_cast<std::size_t>(s)];
    telemetry::ShardRuntimeRow row;
    row.shard = s;
    row.epochs = ssim.epochs_run();
    row.events = rt.events;
    row.busy_s = rt.busy_s;
    row.wait_s = rt.wait_s;
    row.queue_peak = rt.queue_peak;
    row.wheel_peak = rt.wheel_peak;
    row.overflow_peak = rt.overflow_peak;
    if (backend != nullptr) {
      const fleet::IngestShard& is = backend->shard(s);
      row.frames = is.frames_ingested();
      row.samples = is.samples_ingested();
      row.ring_late = is.ring_late();
      row.decode_errors = is.decode_errors();
      row.backlog_peak = backend->backlog_peak(s);
      row.lag_us_peak = backend->lag_us_peak(s);
      row.pool_hits = is.pool().column_reuses() + is.pool().buffer_reuses();
      row.pool_misses = is.pool().column_allocs() + is.pool().buffer_allocs();
      row.pool_free = is.pool().columns_free() + is.pool().buffers_free();
    }
    if (flight != nullptr) {
      row.flight_records = flight->ring(s).appended();
      row.flight_dropped = flight->ring(s).dropped_total();
    }
    rows.push_back(row);
  }
  return telemetry::shards_report_jsonl(rows);
}

}  // namespace vdap::core
