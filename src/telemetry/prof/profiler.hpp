// Continuous profiling plane (DESIGN.md §6j): a sampling profiler that
// attributes wall time to code regions without stack unwinding.
//
// Each registered thread keeps a fixed-depth stack of interned tag ids,
// maintained by strictly nested RAII scopes only: PROF_SCOPE("area/op")
// at fixed sites, and ProfScope(name) for frames named at run time (a
// service's DAG). A frame means "this thread is running this code now",
// so telemetry::Tracer's async spans, which outlive the code that opens
// them, never enter a stack. The stack is published through a
// per-thread seqlock; a background sampler thread snapshots every
// registered stack at a fixed interval and folds the samples into
// collapsed-stack tables ("frame;frame;frame count", Brendan Gregg's
// flamegraph input format).
//
// Design constraints, following the runtime-plane precedent of
// shards.jsonl (§6h) and the flight recorder (§6i):
//   * Wall plane only — profiles measure wall time, so they are NOT part
//     of any byte-identity contract. Sim-plane outputs (digests, traces,
//     metrics, frames, incident bundles) are byte-identical with the
//     sampler on or off; the `prof` test suite proves it across the
//     shard × thread matrix.
//   * Zero hot-path cost when off — PROF_SCOPE compiles to one relaxed
//     thread-local pointer check when no slot is bound. No allocation,
//     no locking, no atomics beyond the slot's own seqlock when on.
//   * No unwinding, no signals — the sampler only ever reads the
//     seqlock-published arrays; a torn read is detected by the sequence
//     word and retried. Safe under TSan: every shared word is an atomic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace vdap::telemetry::prof {

/// Interned tag id. 0 is reserved as "invalid / not interned" so callers
/// can use it as a sentinel.
using TagId = std::uint32_t;
inline constexpr TagId kInvalidTag = 0;

/// Interns `name` in the process-wide tag table and returns its stable id
/// (>= 1). Thread-safe; idempotent per name. Each thread remembers the
/// ids it has interned, so a name takes the table's lock once per thread;
/// PROF_SCOPE also caches its id in a function-local static.
TagId intern_tag(std::string_view name);

/// Name for an interned id ("" for kInvalidTag / unknown ids). Returns a
/// copy: the table may grow concurrently and references must not dangle.
std::string tag_name(TagId id);

/// Number of tags interned so far (monotonic; for tests).
std::size_t tag_count();

/// Fixed stack depth. Deeper nesting is counted (truncated()) but not
/// recorded — the sampler then sees the outermost kMaxProfDepth frames.
inline constexpr std::size_t kMaxProfDepth = 32;

/// One registered thread's published tag stack. The owning thread is the
/// only writer (push/pop); the sampler thread reads through the seqlock.
/// All cross-thread words are atomics, so the retry loop is TSan-clean.
class ProfSlot {
 public:
  /// Writer side (owning thread only).
  void push(TagId id);
  /// Pops the topmost frame (no-op on an empty stack).
  void pop();
  /// The topmost recorded frame: kInvalidTag on an empty stack or past
  /// the depth cap.
  TagId top() const;

  /// Reader side (sampler thread). Copies a consistent snapshot into
  /// `out` and returns its depth; returns 0 for an empty stack, and -1 if
  /// a consistent read could not be obtained in a bounded number of
  /// retries (writer mid-update for the whole window — skip the tick).
  int snapshot(std::array<TagId, kMaxProfDepth>& out) const;

  /// Writer-only count of frames dropped because the stack was full.
  std::uint64_t truncated() const {
    return truncated_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> seq_{0};
  std::atomic<std::uint32_t> depth_{0};
  std::array<std::atomic<TagId>, kMaxProfDepth> tags_{};
  std::atomic<std::uint64_t> truncated_{0};
};

namespace internal {
/// The calling thread's profiling slot; nullptr = profiling off on this
/// thread. Mirrors telemetry::internal::tls_domain / tls_flight: a worker
/// binds its shard's slot around each epoch, the coordinator binds its
/// own slot around barrier sections.
inline thread_local ProfSlot* tls_prof = nullptr;
}  // namespace internal

/// Binds `slot` as the calling thread's profiling target and returns the
/// previous binding (save/restore, like bind_domain / bind_flight).
inline ProfSlot* bind_prof(ProfSlot* slot) {
  ProfSlot* prev = internal::tls_prof;
  internal::tls_prof = slot;
  return prev;
}

/// The calling thread's current profiling slot (nullptr when off).
inline ProfSlot* bound_prof() { return internal::tls_prof; }

/// RAII frame: pushes `tag` on the bound slot for the scope's lifetime.
/// When no slot is bound the constructor is a single pointer check.
class ProfScope {
 public:
  explicit ProfScope(TagId tag) : slot_(internal::tls_prof) {
    if (slot_ != nullptr) slot_->push(tag);
  }
  /// A frame named at run time, such as a service's DAG name. The name is
  /// interned only when a slot is bound. A completion that runs
  /// synchronously inside the call that started it is still that work, so
  /// a scope whose frame is already topmost pushes nothing.
  explicit ProfScope(std::string_view name) : slot_(internal::tls_prof) {
    if (slot_ == nullptr) return;
    const TagId tag = intern_tag(name);
    if (slot_->top() == tag) {
      slot_ = nullptr;
    } else {
      slot_->push(tag);
    }
  }
  ~ProfScope() {
    if (slot_ != nullptr) slot_->pop();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfSlot* slot_;
};

/// One collapsed-stack row: `stack` is ';'-joined frame names, outermost
/// first; `shard` is the slot index the samples were taken from.
struct ProfileRow {
  std::size_t shard = 0;
  std::string stack;
  std::uint64_t count = 0;
};

/// A parsed (or freshly collected) profile artifact.
struct ProfileData {
  std::uint64_t interval_us = 0;
  std::uint64_t samples = 0;     // sampler ticks taken (incl. all-idle)
  std::size_t slots = 0;
  std::uint64_t truncated = 0;   // frames dropped to the depth cap
  std::vector<ProfileRow> rows;  // sorted by (shard, stack)
};

/// Sampler configuration. interval_us is clamped to >= 50 to keep a
/// misconfigured environment from busy-spinning the sampler thread.
struct ProfOptions {
  std::uint64_t interval_us = 1000;  // ~1 kHz default

  /// Applies the VDAP_PROF_INTERVAL_US environment override, if set to a
  /// positive integer.
  static ProfOptions from_env(ProfOptions base);
  static ProfOptions from_env();
};

/// Owns the slot array and the background sampler thread. Lifecycle:
/// construct with the slot count (shards + coordinator + pool workers),
/// bind slots on their owning threads, start(), run the workload, stop(),
/// then read the collected profile. The sampler only ever reads slot
/// seqlocks, so it cannot perturb sim-plane state.
class Profiler {
 public:
  explicit Profiler(std::size_t slots, ProfOptions opts = {});
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  std::size_t slots() const { return slots_.size(); }
  /// nullptr for out-of-range indices, so callers sized for a maximum can
  /// bind unconditionally.
  ProfSlot* slot(std::size_t i) {
    return i < slots_.size() ? slots_[i].get() : nullptr;
  }

  /// Spawns the sampler thread (idempotent).
  void start();
  /// Stops and joins the sampler (idempotent; also run by the dtor).
  void stop();
  bool running() const { return running_; }

  std::uint64_t interval_us() const { return opts_.interval_us; }
  /// Sampler ticks taken so far (each tick snapshots every slot).
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

  /// The collected profile. Call after stop() for a complete view (the
  /// sampler owns the fold tables while running).
  ProfileData collect() const;

 private:
  void sampler_loop();

  ProfOptions opts_;
  std::vector<std::unique_ptr<ProfSlot>> slots_;
  // Fold tables, one per slot, keyed by the raw tag-id stack. Written by
  // the sampler thread only; read by collect() after the join.
  std::vector<std::map<std::vector<TagId>, std::uint64_t>> folds_;
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::thread sampler_;
};

/// Serializes a profile as JSONL: one meta object line followed by one
/// object per collapsed stack, keys in fixed order, rows sorted by
/// (shard, stack) — byte-stable for a given ProfileData.
std::string profile_jsonl(const ProfileData& data);

/// Merged whole-run collapsed-stack file ("frame;frame count" lines,
/// sorted by stack) — feed straight into flamegraph.pl.
std::string profile_folded(const ProfileData& data);

}  // namespace vdap::telemetry::prof

#define VDAP_PROF_CONCAT_(a, b) a##b
#define VDAP_PROF_CONCAT(a, b) VDAP_PROF_CONCAT_(a, b)

/// Pushes an interned frame for the enclosing scope. `name` must be a
/// string literal (interned once, in a function-local static). When no
/// slot is bound on this thread the cost is one thread-local pointer
/// check.
#define PROF_SCOPE(name)                                                   \
  static const ::vdap::telemetry::prof::TagId VDAP_PROF_CONCAT(            \
      vdap_prof_tag_, __LINE__) = ::vdap::telemetry::prof::intern_tag(name); \
  ::vdap::telemetry::prof::ProfScope VDAP_PROF_CONCAT(vdap_prof_scope_,    \
                                                      __LINE__)(           \
      VDAP_PROF_CONCAT(vdap_prof_tag_, __LINE__))
