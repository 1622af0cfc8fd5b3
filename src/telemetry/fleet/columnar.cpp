#include "telemetry/fleet/columnar.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/strings.hpp"

namespace vdap::telemetry::fleet {

// Block format (all little-endian):
//
//   "VCB1"                      4-byte magic
//   u32  count                  samples in the block
//   varint × count              zigzag(time[i] − time[i−1]), time[−1] = 0
//                               (deltas may be negative: ingest
//                               tolerates reordered frames)
//   f64  × count                raw IEEE-754 values
//   u64  checksum               FNV-1a-64 over every byte after the magic
//
// Varints are LEB128 (7 data bits per byte, high bit = continue), at most
// 10 bytes each. The decoder never trusts a declared length: `count` is
// bounds-checked against the available bytes before any allocation, every
// varint read is range-checked, and the trailing checksum must match
// exactly with no bytes left over.

namespace {

constexpr char kMagic[4] = {'V', 'C', 'B', '1'};

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_varint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void put_f64(std::string* out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

bool get_u32(std::string_view bytes, std::size_t* pos, std::uint32_t* out) {
  if (bytes.size() - *pos < 4) return false;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(bytes[*pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  *pos += 4;
  *out = v;
  return true;
}

bool get_u64(std::string_view bytes, std::size_t* pos, std::uint64_t* out) {
  if (bytes.size() - *pos < 8) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[*pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  *pos += 8;
  *out = v;
  return true;
}

bool get_varint(std::string_view bytes, std::size_t* pos, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= bytes.size()) return false;
    const unsigned char b = static_cast<unsigned char>(bytes[(*pos)++]);
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      // Reject non-canonical overlong encodings of the final byte.
      if (shift == 63 && b > 1) return false;
      *out = v;
      return true;
    }
  }
  return false;  // 11th continuation byte: not a valid 64-bit varint
}

}  // namespace

void columnar_encode_to(const ColumnData& cols, std::string* out) {
  out->append(kMagic, sizeof(kMagic));
  const std::size_t payload_start = out->size();
  put_u32(out, static_cast<std::uint32_t>(cols.size()));
  sim::SimTime prev = 0;
  for (sim::SimTime t : cols.times) {
    put_varint(out, zigzag(t - prev));
    prev = t;
  }
  for (double v : cols.values) put_f64(out, v);
  put_u64(out, util::fnv1a_add(util::kFnv1aBasis,
                                std::string_view(*out).substr(payload_start)));
}

std::string columnar_encode(const ColumnData& cols) {
  std::string out;
  columnar_encode_to(cols, &out);
  return out;
}

bool columnar_decode(std::string_view bytes, ColumnData* out,
                     std::string* error) {
  auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  out->clear();
  if (bytes.size() < sizeof(kMagic) + 4 + 8) return fail("block too short");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return fail("bad magic");
  }
  std::size_t pos = sizeof(kMagic);
  const std::size_t payload_start = pos;
  std::uint32_t count = 0;
  if (!get_u32(bytes, &pos, &count)) return fail("truncated count");
  // Every sample needs at least one varint byte and exactly eight value
  // bytes, plus the trailing checksum — bound `count` before any
  // allocation so a hostile header cannot force a giant reserve.
  const std::size_t remaining = bytes.size() - pos;
  if (remaining < 8 || static_cast<std::uint64_t>(count) * 9 > remaining - 8) {
    return fail("count exceeds payload");
  }
  out->times.reserve(count);
  out->values.reserve(count);
  sim::SimTime prev = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t z = 0;
    if (!get_varint(bytes, &pos, &z)) return fail("malformed time varint");
    prev += unzigzag(z);
    out->times.push_back(prev);
  }
  if (bytes.size() - pos != static_cast<std::size_t>(count) * 8 + 8) {
    return fail("value column size mismatch");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    get_u64(bytes, &pos, &bits);  // length checked above
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    out->values.push_back(v);
  }
  std::uint64_t declared = 0;
  get_u64(bytes, &pos, &declared);
  const std::uint64_t actual = util::fnv1a_add(
      util::kFnv1aBasis,
      bytes.substr(payload_start, bytes.size() - 8 - payload_start));
  if (declared != actual) return fail("checksum mismatch");
  return true;
}

ColumnarSeries::ColumnarSeries(const Options& options) : opts_(options) {
  opts_.block_samples = std::max<std::size_t>(opts_.block_samples, 2);
  opts_.max_blocks = std::max<std::size_t>(opts_.max_blocks, 1);
}

void ColumnarSeries::append(sim::SimTime at, double value, BlockPool* pool) {
  if (total_count_ == 0) {
    total_min_ = total_max_ = value;
  } else {
    total_min_ = std::min(total_min_, value);
    total_max_ = std::max(total_max_, value);
  }
  ++total_count_;
  total_sum_ += value;
  active_.times.push_back(at);
  active_.values.push_back(value);
  if (active_.size() >= opts_.block_samples) seal(pool);
}

void ColumnarSeries::seal(BlockPool* pool) {
  if (active_.empty()) return;
  Sealed s;
  s.count = active_.size();
  s.min_time = *std::min_element(active_.times.begin(), active_.times.end());
  s.max_time = *std::max_element(active_.times.begin(), active_.times.end());
  s.min = *std::min_element(active_.values.begin(), active_.values.end());
  s.max = *std::max_element(active_.values.begin(), active_.values.end());
  for (double v : active_.values) s.sum += v;
  s.sketch.set_sample_cap(kSketchCap);
  s.sketch.add_bulk(active_.values.data(), active_.values.size());
  s.bytes = pool != nullptr ? pool->acquire_bytes() : std::string{};
  columnar_encode_to(active_, &s.bytes);
  encoded_bytes_ += s.bytes.size();
  // Evict before the push, so the FIFO never holds more than max_blocks.
  // Evicted bytes return to the pool only after this block took its
  // buffer: the block must not reuse them, or the pool's reuse counts
  // (bench_ingest, shards.jsonl) would move.
  while (sealed_.size() >= opts_.max_blocks) {
    Sealed old = sealed_.pop_front();
    ++evicted_blocks_;
    evicted_samples_ += old.count;
    encoded_bytes_ -= old.bytes.size();
    if (pool != nullptr) pool->release_bytes(std::move(old.bytes));
  }
  sealed_.push_back(std::move(s));
  if (pool != nullptr) {
    pool->release(std::move(active_));
    active_ = pool->acquire();
  } else {
    active_.clear();
  }
}

ColumnarSeries::RangeAgg ColumnarSeries::range(sim::SimTime from,
                                               sim::SimTime to) const {
  RangeAgg agg;
  if (from > to) return agg;
  auto fold = [&agg](double v) {
    if (agg.count == 0) {
      agg.min = agg.max = v;
    } else {
      agg.min = std::min(agg.min, v);
      agg.max = std::max(agg.max, v);
    }
    ++agg.count;
    agg.sum += v;
  };
  ColumnData scratch;
  for (std::size_t b = 0; b < sealed_.size(); ++b) {
    const Sealed& s = sealed_[b];
    if (s.max_time < from || s.min_time > to) continue;
    if (s.min_time >= from && s.max_time <= to) {
      // Fully covered: the summary is the exact answer.
      if (agg.count == 0) {
        agg.min = s.min;
        agg.max = s.max;
      } else {
        agg.min = std::min(agg.min, s.min);
        agg.max = std::max(agg.max, s.max);
      }
      agg.count += s.count;
      agg.sum += s.sum;
      continue;
    }
    // Partially covered: decode and scan. A sealed block always decodes
    // (we encoded it); treat failure as an empty block rather than UB.
    if (!columnar_decode(s.bytes, &scratch)) continue;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      if (scratch.times[i] >= from && scratch.times[i] <= to) {
        fold(scratch.values[i]);
      }
    }
  }
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_.times[i] >= from && active_.times[i] <= to) {
      fold(active_.values[i]);
    }
  }
  return agg;
}

util::Histogram ColumnarSeries::sketch(sim::SimTime from,
                                       sim::SimTime to) const {
  util::Histogram out;
  out.set_sample_cap(kSketchCap);
  if (from > to) return out;
  for (std::size_t b = 0; b < sealed_.size(); ++b) {
    const Sealed& s = sealed_[b];
    if (s.max_time < from || s.min_time > to) continue;
    out.merge(s.sketch);
  }
  bool active_hits = false;
  for (std::size_t i = 0; i < active_.size() && !active_hits; ++i) {
    active_hits = active_.times[i] >= from && active_.times[i] <= to;
  }
  if (active_hits) {
    util::Histogram a;
    a.set_sample_cap(kSketchCap);
    a.add_bulk(active_.values.data(), active_.values.size());
    out.merge(a);
  }
  return out;
}

std::optional<std::pair<sim::SimTime, double>> ColumnarSeries::last_at_or_before(
    sim::SimTime t) const {
  std::optional<std::pair<sim::SimTime, double>> best;
  // Later-appended samples win timestamp ties (>=): "the last thing the
  // vehicle reported at or before t".
  auto consider = [&best, t](sim::SimTime at, double v) {
    if (at > t) return;
    if (!best.has_value() || at >= best->first) best = {at, v};
  };
  ColumnData scratch;
  for (std::size_t b = 0; b < sealed_.size(); ++b) {
    const Sealed& s = sealed_[b];
    if (s.min_time > t) continue;
    // Blocks strictly older than the current best cannot improve it;
    // equal-time blocks must still be scanned for the tie rule above.
    if (best.has_value() && s.max_time < best->first) continue;
    if (!columnar_decode(s.bytes, &scratch)) continue;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      consider(scratch.times[i], scratch.values[i]);
    }
  }
  for (std::size_t i = 0; i < active_.size(); ++i) {
    consider(active_.times[i], active_.values[i]);
  }
  return best;
}

bool ColumnarStore::observe(const std::string& series, sim::SimTime at,
                            double value) {
  if (!std::isfinite(value) || at < 0) {
    ++rejected_;
    return false;
  }
  auto it = series_.find(series);
  if (it == series_.end()) {
    it = series_.emplace(series, ColumnarSeries(opts_)).first;
  }
  it->second.append(at, value, pool_);
  return true;
}

std::vector<std::string> ColumnarStore::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

const ColumnarSeries* ColumnarStore::series(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

}  // namespace vdap::telemetry::fleet
