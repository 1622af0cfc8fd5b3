// Columnar sample storage for the fleet ingest backend (DESIGN.md §6g).
//
// A series accumulates (time, value) pairs into an in-memory ACTIVE block
// (two plain columns). When the active block reaches its size budget it is
// SEALED: the columns are serialized to one compact byte string (zigzag
// varint time deltas + raw little-endian doubles + FNV checksum) and only
// the encoded bytes plus a per-block summary — time span, count, sum,
// min/max and a capped util::Histogram quantile sketch (built in one
// Histogram::add_bulk pass) — stay resident. Range queries prune on block
// summaries, answer fully-covered blocks from the summary alone, and
// decode only the partially-overlapped blocks. Sealed blocks beyond the
// block budget are evicted oldest-first with exact accounting; lifetime
// count/sum/min/max stay exact forever.
//
// The BlockPool recycles column vectors and encode buffers between seals
// (and across a shard's vehicles), so steady-state ingest appends into
// already-sized memory — the hot path allocates nothing.
//
// Determinism: no clock, no RNG, no pointer-keyed containers. Identical
// append sequences produce identical blocks, summaries and encodings, so
// the ingest oracle suite can require byte-equality across shard and
// thread counts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/fifo.hpp"
#include "util/stats.hpp"

namespace vdap::telemetry::fleet {

/// Decoded columns of one block (times and values, index-aligned).
struct ColumnData {
  std::vector<sim::SimTime> times;
  std::vector<double> values;

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }
  void clear() {
    times.clear();
    values.clear();
  }
};

/// Serializes columns to the "VCB1" block format (see columnar.cpp).
std::string columnar_encode(const ColumnData& cols);

/// Appends the encoded bytes to *out (the pooled-buffer variant).
void columnar_encode_to(const ColumnData& cols, std::string* out);

/// Parses one encoded block. Validates magic, declared count vs available
/// bytes, varint shapes, the checksum and trailing garbage; malformed or
/// truncated input returns false with a diagnostic in *error (never
/// crashes, never over-reads) — the fuzz suite leans on this.
bool columnar_decode(std::string_view bytes, ColumnData* out,
                     std::string* error = nullptr);

/// Free lists of column vectors and encode buffers, recycled between block
/// seals and evictions so steady-state ingest reuses already-grown memory.
/// Single-threaded by design: each ingest shard owns one pool.
class BlockPool {
 public:
  ColumnData acquire() {
    if (!columns_.empty()) {
      ColumnData d = std::move(columns_.back());
      columns_.pop_back();
      d.clear();
      ++column_reuses_;
      return d;
    }
    ++column_allocs_;
    return ColumnData{};
  }
  void release(ColumnData&& d) {
    if (columns_.size() < kMaxFree) columns_.push_back(std::move(d));
  }

  std::string acquire_bytes() {
    if (!buffers_.empty()) {
      std::string b = std::move(buffers_.back());
      buffers_.pop_back();
      b.clear();
      ++buffer_reuses_;
      return b;
    }
    ++buffer_allocs_;
    return std::string{};
  }
  void release_bytes(std::string&& b) {
    if (buffers_.size() < kMaxFree) buffers_.push_back(std::move(b));
  }

  std::uint64_t column_allocs() const { return column_allocs_; }
  std::uint64_t column_reuses() const { return column_reuses_; }
  std::uint64_t buffer_allocs() const { return buffer_allocs_; }
  std::uint64_t buffer_reuses() const { return buffer_reuses_; }
  /// Free-list occupancy right now (the sharded runtime report).
  std::size_t columns_free() const { return columns_.size(); }
  std::size_t buffers_free() const { return buffers_.size(); }

 private:
  static constexpr std::size_t kMaxFree = 64;
  std::vector<ColumnData> columns_;
  std::vector<std::string> buffers_;
  std::uint64_t column_allocs_ = 0;
  std::uint64_t column_reuses_ = 0;
  std::uint64_t buffer_allocs_ = 0;
  std::uint64_t buffer_reuses_ = 0;
};

/// One metric's sample history: an active column pair plus sealed encoded
/// blocks, oldest first.
class ColumnarSeries {
 public:
  struct Options {
    /// Active block seals at this many samples.
    std::size_t block_samples = 512;
    /// Sealed-block budget; overflow evicts oldest (with accounting).
    std::size_t max_blocks = 256;
  };

  /// Per-block quantile sketch cap (deterministic thinning).
  static constexpr std::size_t kSketchCap = 256;

  /// Exact aggregate over the closed time interval [from, to].
  struct RangeAgg {
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };

  ColumnarSeries() : ColumnarSeries(Options{}) {}
  explicit ColumnarSeries(const Options& options);

  /// Appends one sample; `pool` (may be null) recycles block memory.
  void append(sim::SimTime at, double value, BlockPool* pool);

  /// Lifetime totals — exact even after sealing and eviction.
  std::size_t total_count() const { return total_count_; }
  double total_sum() const { return total_sum_; }
  double total_min() const { return total_count_ > 0 ? total_min_ : 0.0; }
  double total_max() const { return total_count_ > 0 ? total_max_ : 0.0; }

  /// Exact sample-level aggregate over [from, to] (both ends inclusive).
  /// Prunes on block summaries; decodes only partially-covered blocks.
  RangeAgg range(sim::SimTime from, sim::SimTime to) const;

  /// Quantile sketch over [from, to] at BLOCK granularity: every block
  /// whose time span intersects the range contributes its whole sketch,
  /// merged oldest-block-first (deterministic thinning order).
  util::Histogram sketch(sim::SimTime from, sim::SimTime to) const;

  /// Latest sample at or before `t` (the location-lookup primitive).
  std::optional<std::pair<sim::SimTime, double>> last_at_or_before(
      sim::SimTime t) const;

  std::size_t sealed_blocks() const { return sealed_.size(); }
  std::size_t evicted_blocks() const { return evicted_blocks_; }
  std::size_t evicted_samples() const { return evicted_samples_; }
  std::size_t encoded_bytes() const { return encoded_bytes_; }
  const Options& options() const { return opts_; }

 private:
  struct Sealed {
    sim::SimTime min_time = 0;
    sim::SimTime max_time = 0;
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    util::Histogram sketch;
    std::string bytes;  // columnar_encode of the sealed columns
  };

  void seal(BlockPool* pool);

  Options opts_;
  /// Oldest first, at most max_blocks; a series that never seals holds
  /// no block storage at all.
  util::Fifo<Sealed> sealed_;
  ColumnData active_;
  std::size_t total_count_ = 0;
  double total_sum_ = 0.0;
  double total_min_ = 0.0;
  double total_max_ = 0.0;
  std::size_t evicted_blocks_ = 0;
  std::size_t evicted_samples_ = 0;
  std::size_t encoded_bytes_ = 0;
};

/// The per-vehicle metric database an ingest shard keeps: one
/// ColumnarSeries per metric name, sharing the owning shard's BlockPool.
class ColumnarStore {
 public:
  ColumnarStore() : ColumnarStore(ColumnarSeries::Options{}, nullptr) {}
  ColumnarStore(const ColumnarSeries::Options& options, BlockPool* pool)
      : opts_(options), pool_(pool) {}

  /// Records one sample. Returns false (and records nothing) for
  /// non-finite values or negative timestamps.
  bool observe(const std::string& series, sim::SimTime at, double value);

  /// Series names in lexicographic order.
  std::vector<std::string> names() const;
  const ColumnarSeries* series(const std::string& name) const;

  /// Samples rejected at observe() (non-finite value / negative time).
  std::size_t rejected() const { return rejected_; }

 private:
  ColumnarSeries::Options opts_;
  BlockPool* pool_;
  std::map<std::string, ColumnarSeries> series_;
  std::size_t rejected_ = 0;
};

}  // namespace vdap::telemetry::fleet
