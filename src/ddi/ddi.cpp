#include "ddi/ddi.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/strings.hpp"

namespace vdap::ddi {

Ddi::Ddi(sim::Simulator& sim, DdiOptions options)
    : sim_(sim),
      options_(options),
      cache_(options.mem),
      disk_(std::make_unique<DiskDb>(options.disk)) {
  sim_.every(options_.flush_period, [this]() { flush_staged(); },
             options_.flush_period);
}

void Ddi::upload(DataRecord rec) {
  ++uploads_;
  telemetry::count("ddi.uploads", {{"stream", rec.stream}});
  // New data invalidates cached query results for the stream: rather than
  // track per-range dependencies we simply let cached entries age out via
  // TTL, matching the paper's survival-time design. Staged records are
  // always merged into query results, so reads stay correct.
  std::string stream = rec.stream;
  staged_[stream].push_back(Staged{sim_.now(), std::move(rec)});
}

void Ddi::flush_staged(bool force_all) {
  sim::SimTime cutoff = sim_.now() - options_.staging_ttl;
  std::int64_t flushed = 0;
  std::int64_t failures = 0;
  for (auto& [stream, vec] : staged_) {
    auto keep = vec.begin();
    for (auto it = vec.begin(); it != vec.end(); ++it) {
      bool persisted = false;
      if (force_all || it->staged_at <= cutoff) {
        try {
          disk_->put(it->rec);
          persisted = true;
          ++flushed;
        } catch (const DiskWriteError&) {
          // Disk fault: keep the record staged; a later flush retries it.
          ++disk_write_failures_;
          ++failures;
        }
      }
      if (!persisted) {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    vec.erase(keep, vec.end());
  }
  disk_->flush();
  if (telemetry::on()) {
    telemetry::count("ddi.flushed", flushed);
    if (failures > 0) telemetry::count("ddi.disk_write_failures", failures);
    telemetry::gauge("ddi.staged", static_cast<double>(staged_count()));
    if (flushed > 0 || failures > 0) {
      telemetry::TraceArgs args;
      if (failures > 0) args.add("failures", failures);
      args.add("flushed", flushed);
      telemetry::tracer().instant(sim_.now(), "ddi", "ddi.flush", "ddi",
                                  std::move(args));
    }
  }
  if (options_.retention_max_bytes > 0 || options_.retention_max_age > 0) {
    sim::SimTime cutoff_ts =
        options_.retention_max_age > 0
            ? std::max<sim::SimTime>(0, sim_.now() - options_.retention_max_age)
            : sim::kTimeZero;
    disk_->enforce_retention(options_.retention_max_bytes, cutoff_ts);
  }
}

std::uint64_t Ddi::staged_count() const {
  std::uint64_t n = 0;
  for (const auto& [stream, vec] : staged_) n += vec.size();
  return n;
}

std::string Ddi::cache_key(const DownloadRequest& req) {
  std::string key = util::format(
      "q:%s:%lld:%lld", req.stream.c_str(),
      static_cast<long long>(req.t0), static_cast<long long>(req.t1));
  if (req.geo) {
    key += util::format(":g:%.5f:%.5f:%.5f:%.5f", req.lat0, req.lat1,
                        req.lon0, req.lon1);
  }
  return key;
}

std::vector<DataRecord> Ddi::collect(const DownloadRequest& req) {
  std::vector<DataRecord> out =
      req.geo ? disk_->query_geo(req.stream, req.t0, req.t1, req.lat0,
                                 req.lat1, req.lon0, req.lon1)
              : disk_->query(req.stream, req.t0, req.t1);
  // Merge still-staged records in the range.
  auto it = staged_.find(req.stream);
  if (it != staged_.end()) {
    for (const Staged& s : it->second) {
      const DataRecord& r = s.rec;
      if (r.timestamp < req.t0 || r.timestamp > req.t1) continue;
      if (req.geo && (r.lat < req.lat0 || r.lat > req.lat1 ||
                      r.lon < req.lon0 || r.lon > req.lon1)) {
        continue;
      }
      out.push_back(r);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const DataRecord& a, const DataRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  return out;
}

DownloadResponse Ddi::download_now(const DownloadRequest& req) {
  ++downloads_;
  telemetry::count("ddi.downloads", {{"stream", req.stream}});
  DownloadResponse resp;
  std::string key = cache_key(req);
  auto cached = cache_.get(key, sim_.now());
  if (cached.has_value()) {
    telemetry::count("ddi.cache_hits");
    // Cached responses store the packed records in the payload.
    resp.from_cache = true;
    resp.latency = options_.mem_latency;
    const json::Array& arr = cached->payload.as_array();
    resp.records.reserve(arr.size());
    for (const json::Value& v : arr) {
      DataRecord r;
      r.stream = req.stream;
      r.timestamp = v.get_int("ts");
      r.lat = v.get_double("lat");
      r.lon = v.get_double("lon");
      if (const json::Value* p = v.find("payload")) r.payload = *p;
      resp.records.push_back(std::move(r));
    }
    return resp;
  }
  telemetry::count("ddi.cache_misses");
  resp.from_cache = false;
  resp.latency = options_.disk_latency;
  resp.records = collect(req);
  // Cache the result for subsequent identical requests.
  json::Array packed;
  packed.reserve(resp.records.size());
  for (const DataRecord& r : resp.records) {
    json::Value v;
    v["ts"] = r.timestamp;
    v["lat"] = r.lat;
    v["lon"] = r.lon;
    v["payload"] = r.payload;
    packed.push_back(std::move(v));
  }
  DataRecord cache_rec;
  cache_rec.stream = "cache";
  cache_rec.timestamp = sim_.now();
  cache_rec.payload = json::Value(std::move(packed));
  cache_.put(key, std::move(cache_rec), sim_.now());
  return resp;
}

void Ddi::download(const DownloadRequest& req,
                   std::function<void(const DownloadResponse&)> done) {
  DownloadResponse resp = download_now(req);
  sim_.after(resp.latency, [resp = std::move(resp),
                            done = std::move(done)]() { done(resp); });
}

}  // namespace vdap::ddi
