#include "ddi/cloudsync.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace vdap::ddi {

CloudSync::CloudSync(sim::Simulator& sim, Ddi& ddi, net::Topology& topo,
                     CloudSyncOptions options)
    : sim_(sim), ddi_(ddi), topo_(topo), options_(options) {}

void CloudSync::start() {
  stopped_ = false;
  if (handle_ && handle_->active()) return;
  handle_ = sim_.every(options_.check_period, [this]() { sync_once(); },
                       options_.check_period);
}

void CloudSync::stop() {
  stopped_ = true;
  if (handle_) handle_->stop();
}

std::uint64_t CloudSync::backlog() const {
  std::uint64_t n = 0;
  for (const std::string& stream : ddi_.disk().streams()) {
    auto it = cursor_.find(stream);
    sim::SimTime from = it != cursor_.end() ? it->second + 1 : 0;
    n += ddi_.disk().query(stream, from, sim::kTimeMax).size();
  }
  return n;
}

bool CloudSync::gate_closed() const {
  return !topo_.available(options_.tier) ||
         topo_.cellular_bandwidth_factor() < options_.min_bandwidth_factor;
}

std::size_t CloudSync::sync_once() {
  if (gate_closed()) {
    ++skipped_;
    telemetry::count("sync.skipped");
    return 0;
  }
  std::size_t shipped = 0;
  for (const std::string& stream : ddi_.disk().streams()) {
    shipped += sync_stream(stream);
  }
  return shipped;
}

std::size_t CloudSync::sync_stream(const std::string& stream) {
  if (in_flight_.count(stream) > 0) return 0;  // batch still uploading
  sim::SimTime from = cursor_.count(stream) > 0 ? cursor_[stream] + 1 : 0;
  std::vector<DataRecord> pending =
      ddi_.disk().query(stream, from, sim::kTimeMax);
  if (pending.empty()) return 0;
  if (pending.size() > options_.batch_records) {
    pending.resize(options_.batch_records);
  }
  std::uint64_t bytes = 0;
  for (const DataRecord& r : pending) bytes += encoded_size(r);

  // Ship the batch; advance the cursor only on delivery — the never-lose-
  // records invariant: a failed or half-delivered batch leaves the cursor
  // where it was, so every record is re-shipped until the cloud confirms.
  sim::SimTime new_cursor = pending.back().timestamp;
  auto batch = std::make_shared<std::vector<DataRecord>>(std::move(pending));
  std::string stream_name = stream;
  in_flight_.insert(stream_name);
  std::uint64_t span = 0;
  if (telemetry::on()) {
    span = telemetry::tracer().begin(
        sim_.now(), "ddi", "sync:" + stream_name, "cloudsync",
        telemetry::TraceArgs()
            .add("bytes", bytes)
            .add("records", batch->size()));
  }
  topo_.transfer_up(
      options_.tier, bytes,
      [this, batch, bytes, stream_name, new_cursor,
       span](const net::TransferOutcome& out) {
        in_flight_.erase(stream_name);
        if (telemetry::on()) {
          telemetry::tracer().end(
              sim_.now(), span,
              telemetry::TraceArgs().add("delivered", out.delivered));
        }
        if (!out.delivered) {
          ++failed_;
          telemetry::count("sync.failed");
          schedule_retry(stream_name);
          return;  // cursor untouched
        }
        consecutive_failures_.erase(stream_name);
        cursor_[stream_name] = new_cursor;
        records_synced_ += batch->size();
        bytes_synced_ += bytes;
        telemetry::count("sync.batches");
        telemetry::count("sync.records",
                         static_cast<std::int64_t>(batch->size()));
        telemetry::count("sync.bytes", static_cast<std::int64_t>(bytes));
        if (sink_) {
          for (const DataRecord& r : *batch) sink_(r);
        }
      });
  return batch->size();
}

void CloudSync::schedule_retry(const std::string& stream) {
  if (options_.retry_backoff <= 0 || stopped_) return;
  int k = ++consecutive_failures_[stream];
  sim::SimDuration delay = options_.retry_backoff;
  for (int i = 1; i < k && delay < options_.retry_backoff_max; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options_.retry_backoff_max);
  if (telemetry::on()) {
    telemetry::tracer().instant(sim_.now(), "ddi", "sync.backoff", "cloudsync",
                                telemetry::TraceArgs()
                                    .add("attempt", k)
                                    .add("delay_ms", sim::to_millis(delay))
                                    .add("stream", stream));
  }
  sim_.after(delay, [this, stream]() {
    if (stopped_) return;
    // If conditions are still hostile, let the periodic wake-up retry
    // instead of spinning against a closed gate.
    if (gate_closed()) return;
    ++retries_;
    telemetry::count("sync.retries");
    sync_stream(stream);
  });
}

}  // namespace vdap::ddi
