// Per-shard telemetry domains for a sharded run (DESIGN.md §6h).
//
// telemetry::Planes owns the DomainSet of a sharded run (planes.hpp):
// shard i's Domain is bound on whichever pool thread runs shard i's
// epoch, and the coordinator Domain around the barrier itself (message
// exchange, epoch sinks, ingest mirrors). At every epoch
// barrier — all shards quiesced — merge_epoch() drains each domain's new
// trace events and appends them to a master log in a canonical order that
// is a pure function of the event *multiset*, so the merged export is
// byte-identical across the shard × thread matrix for instrumentation
// whose content does not itself depend on the shard geometry (the
// entity-partitioned fleet paths; see §6h for the exact contract). The
// master log is a list of chunks, one sorted batch per merged epoch, so
// no event moves again once merged.
//
// Metrics stay cumulative inside each domain; merged_metrics() folds them
// on demand in shard-index order (then the coordinator). Counters are
// int64 sums, so the merged values are geometry-exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace vdap::telemetry {

class DomainSet {
 public:
  explicit DomainSet(int shards);

  int shards() const { return static_cast<int>(shards_.size()); }
  Domain* shard_domain(int i) {
    return &shards_[static_cast<std::size_t>(i)]->domain;
  }
  Domain* coordinator_domain() { return &coordinator_.domain; }

  /// Epoch-barrier merge: drains every domain's trace events recorded since
  /// the previous barrier and appends them to the master log as one chunk
  /// in canonical (ts, track, name, cat, ph, dur, args) order, renumbering
  /// async span ids in merged order. It sorts references to the drained
  /// events and moves each event once, into the chunk. Call only with all
  /// shards quiesced.
  void merge_epoch();

  /// The merged master trace (valid after the last merge_epoch()): one
  /// chunk per merged epoch, in merge order. Tids index the master tracks,
  /// interned in merged first-use order.
  const std::vector<std::vector<TraceEvent>>& chunks() const {
    return chunks_;
  }
  std::string chrome_trace() const;
  std::size_t events() const { return events_; }

  /// Spans opened but not yet closed, summed over every domain.
  std::size_t open_spans() const;

  /// Fresh merge of every domain's metrics: shards in index order, then the
  /// coordinator domain.
  MetricsRegistry merged_metrics() const;

 private:
  struct Entry {
    Domain domain;
    // Domain-local span id -> master span id, for 'b'/'e' renumbering.
    std::map<std::uint64_t, std::uint64_t> span_ids;
    // Domain track index -> master track index (kUnmapped until the
    // track's first merged event). Tracks are append-only, so the map
    // stays valid across epochs; it grows as the domain interns more.
    std::vector<std::uint32_t> master_tids;
  };

  // The master track of `entry`'s track `tid`, interned in the master on
  // first use so master tids keep merged first-use order.
  std::uint32_t master_tid(Entry& entry, std::uint32_t tid);

  // unique_ptr keeps Domain addresses stable across the vector.
  std::vector<std::unique_ptr<Entry>> shards_;
  Entry coordinator_;
  Tracer master_;  // interns the master tracks; records no events
  std::vector<std::vector<TraceEvent>> chunks_;
  std::size_t events_ = 0;
  std::uint64_t next_span_ = 1;
};

}  // namespace vdap::telemetry
