// Lightweight metrics used across the platform and the benchmark harness:
// counters, running summaries, quantile-capable histograms, and an aligned
// text table printer that the bench binaries use to emit paper-shaped tables.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vdap::util {

/// Running summary over a stream of doubles: count/mean/min/max/variance.
/// Uses Welford's algorithm so it is numerically stable for long runs.
class Summary {
 public:
  void add(double x);
  void merge(const Summary& other);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile histogram: stores samples and sorts lazily on query. Exact by
/// default (fine for simulation-scale sample counts); with a sample cap it
/// switches to deterministic stride thinning so soak-length runs don't grow
/// memory without limit — count/mean/min/max stay exact, quantiles come
/// from the retained subsample.
class Histogram {
 public:
  void add(double x);
  /// Folds `n` values in one pass. Produces exactly the state that n
  /// repeated add() calls would (same stride/thinning transitions, same
  /// floating-point sum order), but min/max fold in a tight loop and the
  /// retained-sample vector grows in one append when no thinning can
  /// trigger — the path columnar block sealing runs per block.
  void add_bulk(const double* xs, std::size_t n);
  /// Total values observed (exact even when samples were thinned).
  std::size_t count() const { return total_; }
  /// Values currently retained for quantile queries (≤ count()).
  std::size_t retained() const { return samples_.size(); }
  double mean() const;
  double min() const { return total_ > 0 ? min_ : 0.0; }
  double max() const { return total_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }
  /// Quantile in [0,1]; nearest-rank. Returns 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  void clear();

  /// Bounds retained samples to `cap` (0 = unbounded, the default). When
  /// the store fills, every other retained sample is dropped and the
  /// record stride doubles — deterministic, allocation-bounded thinning.
  void set_sample_cap(std::size_t cap);
  std::size_t sample_cap() const { return cap_; }

  /// Folds `other` into this histogram. Count/mean/min/max merge exactly;
  /// quantiles afterwards reflect the union of both retained sample sets
  /// (re-thinned if a cap is set).
  void merge(const Histogram& other);

 private:
  void ensure_sorted() const;
  void thin();
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  std::size_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::size_t cap_ = 0;
  std::size_t stride_ = 1;   // record every stride-th add
  std::size_t skipped_ = 0;  // adds since the last recorded sample
};

/// Named monotonically-increasing counters.
class CounterSet {
 public:
  void inc(const std::string& name, std::int64_t by = 1) { c_[name] += by; }
  std::int64_t get(const std::string& name) const {
    auto it = c_.find(name);
    return it == c_.end() ? 0 : it->second;
  }
  const std::map<std::string, std::int64_t>& all() const { return c_; }

  /// Adds every counter of `other` into this set.
  void merge(const CounterSet& other) {
    for (const auto& [name, v] : other.c_) c_[name] += v;
  }

 private:
  std::map<std::string, std::int64_t> c_;
};

/// Column-aligned text table with an optional title; the bench binaries use
/// this to print paper-figure reproductions in a uniform format.
class TextTable {
 public:
  explicit TextTable(std::string title = "") : title_(std::move(title)) {}
  void set_header(std::vector<std::string> header) { header_ = std::move(header); }
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }
  std::string to_string() const;

  // Structured access, for machine-readable exports (bench/bench_output.hpp).
  const std::string& title() const { return title_; }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Formats a double with the given precision (helper for row building).
  static std::string num(double v, int precision = 2);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vdap::util
