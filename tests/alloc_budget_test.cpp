// Allocation and footprint budgets for the fleet-scale frame path.
//
// This binary replaces the global operator new/delete with counting
// versions that take each block's size from malloc_usable_size. It runs
// core::run_fleet_scale at 2,000 and 4,000 vehicles on 4 shards and one
// thread and pins the difference between the two runs, per added
// vehicle or per added delivered frame, so fixed costs (the shard runtime,
// the planes, gtest itself) cancel:
//   * heap allocations per delivered frame, counted from the end of world
//     setup to the end of the run;
//   * heap allocations per vehicle during world setup;
//   * live heap per vehicle at the run's high-water mark.
// Each budget is the measured value plus about 5%, so a change that adds
// one allocation per frame or a few hundred bytes per vehicle fails here.
// Sanitizer runtimes bring their own allocators, so the test skips under
// ASan and TSan and the counting operators are left out of those builds.
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/fleet_scale.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VDAP_ALLOC_COUNTING 0
#else
#define VDAP_ALLOC_COUNTING 1
#endif

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

}  // namespace

#if VDAP_ALLOC_COUNTING

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

// GCC cannot see that this operator new allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}
#pragma GCC diagnostic pop

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

#endif  // VDAP_ALLOC_COUNTING

namespace vdap {
namespace {

// The budgets: measured values plus about 5%. Measured 2.52
// allocations per frame, 9.01 per vehicle at setup, and 6,145 B of live
// heap per vehicle. History, each failing what came after it:
//   * per-vehicle deques and a heap closure per event: 26.57, 24.01 and
//     9,877 B;
//   * a runner that decodes each delivered frame to count its samples:
//     13.82 allocations per frame;
//   * pending maps moved into a WireFrame at every cut, a 24-byte tick
//     closure and two 2,504-byte std::mt19937_64 states per vehicle:
//     7.82, 10.01 and 8,303 B, which fail all three.
constexpr double kAllocsPerFrame = 2.65;
constexpr double kSetupAllocsPerVehicle = 9.5;
constexpr double kLiveBytesPerVehicle = 6450.0;

struct Footprint {
  std::uint64_t frames = 0;
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;
  std::int64_t peak_live = 0;  // bytes above the live heap at entry
};

Footprint measure(int vehicles) {
  core::FleetScaleConfig cfg;
  cfg.vehicles = vehicles;
  cfg.seed = 1;
  cfg.shards = 4;
  // One thread runs the shards in a fixed order, so the high-water mark
  // is the same on every run; the counts do not depend on the threads.
  cfg.threads = 1;
  std::uint64_t at_prepare = 0;
  cfg.prepare = [&at_prepare](sim::ShardedSimulator&) {
    at_prepare = g_allocs.load(std::memory_order_relaxed);
  };
  const std::int64_t live_before = g_live.load(std::memory_order_relaxed);
  g_peak.store(live_before, std::memory_order_relaxed);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const core::FleetScaleOutcome out = core::run_fleet_scale(cfg);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  Footprint f;
  f.frames = out.frames_delivered;
  f.setup_allocs = at_prepare - before;
  f.run_allocs = after - at_prepare;
  f.peak_live = g_peak.load(std::memory_order_relaxed) - live_before;
  return f;
}

TEST(AllocBudget, FleetScaleFramePathStaysWithinBudget) {
#if !VDAP_ALLOC_COUNTING
  GTEST_SKIP() << "sanitizer allocators change the counts";
#else
  const Footprint small = measure(2000);
  const Footprint large = measure(4000);
  ASSERT_GT(large.frames, small.frames);
  ASSERT_GT(small.frames, 0u);

  const double added_vehicles = 2000.0;
  const double added_frames = static_cast<double>(large.frames - small.frames);
  const double allocs_per_frame =
      static_cast<double>(large.run_allocs - small.run_allocs) / added_frames;
  const double setup_allocs_per_vehicle =
      static_cast<double>(large.setup_allocs - small.setup_allocs) /
      added_vehicles;
  const double live_bytes_per_vehicle =
      static_cast<double>(large.peak_live - small.peak_live) / added_vehicles;
  std::printf(
      "alloc budget: %.2f allocations per delivered frame, %.2f per vehicle "
      "at setup, %.0f B live heap per vehicle at the high-water mark\n",
      allocs_per_frame, setup_allocs_per_vehicle, live_bytes_per_vehicle);

  EXPECT_LE(allocs_per_frame, kAllocsPerFrame);
  EXPECT_LE(setup_allocs_per_vehicle, kSetupAllocsPerVehicle);
  EXPECT_LE(live_bytes_per_vehicle, kLiveBytesPerVehicle);
#endif
}

}  // namespace
}  // namespace vdap
