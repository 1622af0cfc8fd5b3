// Continuous-profiling suite (DESIGN.md §6j).
//
// The load-bearing assertion is the sweep: turning the sampling profiler
// on must not move a single byte of any deterministic output — digest,
// capture artifacts, ingest summary — across the whole shard × thread
// matrix. Profiles are wall-plane samples; everything else here (seqlock
// slot mechanics, tag interning, scopes that async trace spans never
// disturb, the JSONL round trip and its mutation fuzz, table rendering)
// exists to localize a sweep failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/fleet_scale.hpp"
#include "sim/sharded.hpp"
#include "telemetry/prof/profiler.hpp"
#include "telemetry/prof/report.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace vdap;
using namespace vdap::telemetry::prof;

// The full 9-point geometry matrix is cheap on a plain build but costs
// minutes under ASan/TSan; scale the fleet down there (the matrix itself
// stays complete — geometry coverage is the point of this suite).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// --- tag interning -----------------------------------------------------------

TEST(ProfTagTest, InterningIsStableAndIdempotent) {
  const TagId a = intern_tag("prof-test/alpha");
  const TagId b = intern_tag("prof-test/beta");
  EXPECT_NE(a, kInvalidTag);
  EXPECT_NE(b, kInvalidTag);
  EXPECT_NE(a, b);
  EXPECT_EQ(intern_tag("prof-test/alpha"), a);
  EXPECT_EQ(tag_name(a), "prof-test/alpha");
  EXPECT_EQ(tag_name(b), "prof-test/beta");
  EXPECT_EQ(tag_name(kInvalidTag), "");
  EXPECT_EQ(tag_name(0xffffffffu), "");
  EXPECT_GE(tag_count(), 2u);
}

// --- ProfSlot seqlock mechanics ----------------------------------------------

std::vector<TagId> snap(const ProfSlot& slot) {
  std::array<TagId, kMaxProfDepth> stack{};
  const int depth = slot.snapshot(stack);
  EXPECT_GE(depth, 0);
  return std::vector<TagId>(stack.begin(), stack.begin() + depth);
}

TEST(ProfSlotTest, PushPopMaintainsTheStack) {
  ProfSlot slot;
  const TagId a = intern_tag("prof-test/a");
  const TagId b = intern_tag("prof-test/b");
  EXPECT_TRUE(snap(slot).empty());
  slot.push(a);
  slot.push(b);
  EXPECT_EQ(snap(slot), (std::vector<TagId>{a, b}));
  slot.pop();
  EXPECT_EQ(snap(slot), (std::vector<TagId>{a}));
  slot.pop();
  EXPECT_TRUE(snap(slot).empty());
  slot.pop();  // empty pop is a no-op, not UB
  EXPECT_TRUE(snap(slot).empty());
}

TEST(ProfSlotTest, OverflowTruncatesButStaysBalanced) {
  ProfSlot slot;
  const TagId t = intern_tag("prof-test/deep");
  for (std::size_t i = 0; i < kMaxProfDepth + 3; ++i) slot.push(t);
  EXPECT_EQ(slot.truncated(), 3u);
  // The sampler sees the outermost kMaxProfDepth frames.
  EXPECT_EQ(snap(slot).size(), kMaxProfDepth);
  // Unwinding the truncated frames restores balance exactly.
  for (int i = 0; i < 3; ++i) slot.pop();
  EXPECT_EQ(snap(slot).size(), kMaxProfDepth);
  for (std::size_t i = 0; i < kMaxProfDepth; ++i) slot.pop();
  EXPECT_TRUE(snap(slot).empty());
}

// --- scopes and bindings -----------------------------------------------------

TEST(ProfScopeTest, RaiiPushesOnTheBoundSlotOnly) {
  ProfSlot slot;
  const TagId t = intern_tag("prof-test/scope");
  {
    ProfScope unbound(t);  // no slot bound: a pointer check, nothing more
    EXPECT_TRUE(snap(slot).empty());
  }
  ProfSlot* prev = bind_prof(&slot);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(bound_prof(), &slot);
  {
    PROF_SCOPE("prof-test/macro");
    ProfScope inner(t);
    EXPECT_EQ(snap(slot).size(), 2u);
    EXPECT_EQ(snap(slot)[0], intern_tag("prof-test/macro"));
    EXPECT_EQ(snap(slot)[1], t);
  }
  EXPECT_TRUE(snap(slot).empty());
  bind_prof(prev);
  EXPECT_EQ(bound_prof(), nullptr);
}

// A scope captures its slot at construction: rebinding mid-scope must not
// unbalance either slot (the epoch runner rebinds between scopes, but the
// guarantee is what makes that safe).
TEST(ProfScopeTest, ScopeSticksToItsConstructionSlot) {
  ProfSlot a;
  ProfSlot b;
  const TagId t = intern_tag("prof-test/rebind");
  ProfSlot* prev = bind_prof(&a);
  {
    ProfScope scope(t);
    bind_prof(&b);
    EXPECT_EQ(snap(a).size(), 1u);
    EXPECT_TRUE(snap(b).empty());
  }
  EXPECT_TRUE(snap(a).empty());  // popped from a, not b
  EXPECT_TRUE(snap(b).empty());
  bind_prof(prev);
}

// A scope named at run time interns its name only when a slot is bound,
// and a synchronous re-entry of the frame already on top pushes nothing:
// a completion run inside the call that started it is still that work.
TEST(ProfScopeTest, NamedScopeIsOneFrameAcrossReentry) {
  const std::size_t tags = tag_count();
  {
    ProfScope unbound("prof-test/never-interned");
  }
  EXPECT_EQ(tag_count(), tags);
  ProfSlot slot;
  ProfSlot* prev = bind_prof(&slot);
  const TagId svc = intern_tag("prof-test/service");
  {
    ProfScope run(std::string("prof-test/service"));
    {
      ProfScope completion(std::string_view("prof-test/service"));
      EXPECT_EQ(snap(slot), (std::vector<TagId>{svc}));
      PROF_SCOPE("prof-test/inner");
      ProfScope nested("prof-test/service");  // not on top: a new frame
      EXPECT_EQ(snap(slot).size(), 3u);
    }
    EXPECT_EQ(snap(slot), (std::vector<TagId>{svc}));
  }
  EXPECT_TRUE(snap(slot).empty());
  bind_prof(prev);
}

// --- async trace spans stay out of the stacks --------------------------------

// A frame means "this thread is running this code now". An async span
// outlives the code that opened it, so it never enters the stack: the
// scope around begin() pops its own frame and leaves the slot empty.
TEST(ProfTracerTest, ScopeOutlivingAnAsyncSpanLeavesItsSlotEmpty) {
  telemetry::Tracer tracer;
  ProfSlot slot;
  ProfSlot* prev = bind_prof(&slot);
  std::uint64_t span = 0;
  {
    PROF_SCOPE("prof-test/opener");
    span = tracer.begin(sim::usec(10), "svc", "prof-test/span", "svc");
    EXPECT_EQ(snap(slot),
              (std::vector<TagId>{intern_tag("prof-test/opener")}));
  }
  EXPECT_TRUE(snap(slot).empty());
  tracer.end(sim::usec(20), span);
  EXPECT_TRUE(snap(slot).empty());
  EXPECT_EQ(tracer.open_spans(), 0u);
  bind_prof(prev);
}

TEST(ProfTracerTest, SpansRecordedUnboundNeverTouchASlot) {
  telemetry::Tracer tracer;
  ProfSlot slot;
  const std::uint64_t id =
      tracer.begin(sim::usec(10), "svc", "prof-test/unbound", "svc");
  // end() with a slot bound leaves the slot's own frame alone.
  ProfSlot* prev = bind_prof(&slot);
  slot.push(intern_tag("prof-test/resident"));
  tracer.end(sim::usec(20), id);
  EXPECT_EQ(snap(slot).size(), 1u);
  bind_prof(prev);
}

// --- sampler -----------------------------------------------------------------

TEST(ProfSamplerTest, SamplesTheBoundStackIntoFolds) {
  Profiler prof(2, ProfOptions{100});  // 10 kHz so the test stays short
  EXPECT_EQ(prof.interval_us(), 100u);
  EXPECT_NE(prof.slot(0), nullptr);
  EXPECT_NE(prof.slot(1), nullptr);
  EXPECT_EQ(prof.slot(2), nullptr);  // out-of-range: bind-unconditionally API
  prof.slot(0)->push(intern_tag("prof-test/sampled"));
  prof.start();
  prof.start();  // idempotent
  // Wait until the sampler demonstrably ticked a few times.
  for (int i = 0; i < 200 && prof.samples() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  prof.stop();
  EXPECT_GE(prof.samples(), 5u);
  prof.slot(0)->pop();

  const ProfileData data = prof.collect();
  EXPECT_EQ(data.slots, 2u);
  EXPECT_EQ(data.samples, prof.samples());
  EXPECT_EQ(data.truncated, 0u);
  ASSERT_EQ(data.rows.size(), 1u);  // slot 1 stayed empty: no row
  EXPECT_EQ(data.rows[0].shard, 0u);
  EXPECT_EQ(data.rows[0].stack, "prof-test/sampled");
  EXPECT_GE(data.rows[0].count, 5u);
}

TEST(ProfSamplerTest, IntervalIsClampedAgainstBusySpin) {
  Profiler prof(1, ProfOptions{1});
  EXPECT_EQ(prof.interval_us(), 50u);
}

// --- simulator-owned profiler ------------------------------------------------

// The simulator owns its profiler and declares it before the pool, so a
// prof-on simulator can be destroyed while its worker is parked in a
// "pool/wait" scope — no detach call — and the scope unwinds before the
// slot it points into goes away (ASan runs this under the `prof` label).
TEST(ProfShardedTest, DestroyedWithLivePoolNeedsNoDetach) {
  telemetry::ObsOptions obs;
  obs.prof = true;
  obs.prof_opts.interval_us = 100;
  auto ssim = std::make_unique<sim::ShardedSimulator>(
      7, sim::ShardedSimulator::Options{2, 2, sim::seconds(1), obs});
  Profiler* prof = ssim->planes().prof();
  ASSERT_NE(prof, nullptr);
  EXPECT_TRUE(prof->running());
  // Slot layout: 2 shards, the coordinator, then one per thread.
  EXPECT_EQ(prof->slots(), 5u);
  ssim->shard(1).at(sim::msec(10), [] {});
  EXPECT_EQ(ssim->run_until(sim::seconds(2)), 1u);
  // Wait until the spawned worker (slot 3) is parked in "pool/wait".
  std::array<TagId, kMaxProfDepth> stack{};
  for (int i = 0; i < 500 && prof->slot(3)->snapshot(stack) < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(prof->slot(3)->snapshot(stack), 1);
  EXPECT_EQ(tag_name(stack[0]), "pool/wait");
  ssim.reset();
}

// A span opened in one epoch and left open across later ones leaves every
// shard slot empty at each barrier: the epoch scope pops its own frame.
TEST(ProfShardedTest, SpanOpenAcrossEpochsLeavesShardSlotsEmpty) {
  telemetry::ObsOptions obs;
  obs.capture = true;
  obs.prof = true;
  obs.prof_opts.interval_us = 100;
  sim::ShardedSimulator ssim(
      7, sim::ShardedSimulator::Options{2, 2, sim::seconds(1), obs});
  sim::Simulator& shard = ssim.shard(0);
  std::uint64_t span = 0;
  shard.at(sim::msec(500), [&shard, &span] {
    ASSERT_TRUE(telemetry::on());
    span = telemetry::tracer().begin(shard.now(), "svc", "prof-test/open",
                                     "svc");
  });
  shard.at(sim::msec(3500), [&shard, &span] {
    telemetry::tracer().end(shard.now(), span);
  });
  Profiler* prof = ssim.planes().prof();
  ASSERT_NE(prof, nullptr);
  std::array<TagId, kMaxProfDepth> stack{};
  for (sim::SimTime until : {sim::seconds(3), sim::seconds(5)}) {
    ssim.run_until(until);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(prof->slot(s)->snapshot(stack), 0)
          << "shard " << s << " after " << until;
    }
  }
}

TEST(ProfOptionsTest, EnvOverrideParsesPositiveIntegersOnly) {
  ASSERT_EQ(setenv("VDAP_PROF_INTERVAL_US", "250", 1), 0);
  EXPECT_EQ(ProfOptions::from_env().interval_us, 250u);
  ASSERT_EQ(setenv("VDAP_PROF_INTERVAL_US", "nonsense", 1), 0);
  EXPECT_EQ(ProfOptions::from_env().interval_us, ProfOptions{}.interval_us);
  ASSERT_EQ(setenv("VDAP_PROF_INTERVAL_US", "0", 1), 0);
  EXPECT_EQ(ProfOptions::from_env().interval_us, ProfOptions{}.interval_us);
  ASSERT_EQ(unsetenv("VDAP_PROF_INTERVAL_US"), 0);
  EXPECT_EQ(ProfOptions::from_env().interval_us, ProfOptions{}.interval_us);
}

// --- artifact round trip -----------------------------------------------------

ProfileData sample_profile() {
  ProfileData data;
  data.interval_us = 1000;
  data.samples = 100;
  data.slots = 2;
  data.truncated = 0;
  data.rows.push_back({0, "sim/epoch", 10});
  data.rows.push_back({0, "sim/epoch;ingest/decode", 30});
  data.rows.push_back({1, "pool/wait", 40});
  return data;
}

TEST(ProfArtifactTest, JsonlRoundTripsExactly) {
  const ProfileData data = sample_profile();
  const std::string jsonl = profile_jsonl(data);
  // Meta first, then rows sorted by (shard, stack), keys in fixed order.
  EXPECT_EQ(jsonl.substr(0, jsonl.find('\n')),
            "{\"interval_us\":1000,\"samples\":100,\"slots\":2,"
            "\"truncated\":0}");
  ProfileData parsed;
  std::string error;
  ASSERT_TRUE(parse_profile_jsonl(jsonl, &parsed, &error)) << error;
  EXPECT_EQ(parsed.interval_us, data.interval_us);
  EXPECT_EQ(parsed.samples, data.samples);
  EXPECT_EQ(parsed.slots, data.slots);
  ASSERT_EQ(parsed.rows.size(), 3u);
  EXPECT_EQ(parsed.rows[1].stack, "sim/epoch;ingest/decode");
  EXPECT_EQ(parsed.rows[1].count, 30u);
  // Re-serializing reproduces the input byte for byte.
  EXPECT_EQ(profile_jsonl(parsed), jsonl);
}

TEST(ProfArtifactTest, ParseDiagnosesMalformedInput) {
  ProfileData data;
  std::string error;
  EXPECT_FALSE(parse_profile_jsonl("", &data, &error));
  EXPECT_NE(error.find("no meta line"), std::string::npos);
  EXPECT_FALSE(parse_profile_jsonl("not json\n", &data, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  const std::string bad_row =
      "{\"interval_us\":1000,\"samples\":1,\"slots\":1,\"truncated\":0}\n"
      "{\"count\":1,\"shard\":0}\n";
  EXPECT_FALSE(parse_profile_jsonl(bad_row, &data, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  // profile_jsonl writes unsigned integers only: a negative or fractional
  // number could not be written back as read.
  for (const char* row : {"{\"count\":-2,\"shard\":0,\"stack\":\"a\"}\n",
                          "{\"count\":1.5,\"shard\":0,\"stack\":\"a\"}\n",
                          "{\"count\":1,\"shard\":-1,\"stack\":\"a\"}\n"}) {
    error.clear();
    EXPECT_FALSE(parse_profile_jsonl(
        "{\"interval_us\":1000,\"samples\":1,\"slots\":1,\"truncated\":0}\n" +
            std::string(row),
        &data, &error))
        << row;
    EXPECT_NE(error.find("line 2: shard and count must be non-negative"),
              std::string::npos)
        << error;
  }
  EXPECT_FALSE(parse_profile_jsonl("{\"interval_us\":-1}\n", &data, &error));
  EXPECT_NE(error.find("line 1: meta counts"), std::string::npos) << error;
}

// Rows of a profile.jsonl bench_prof wrote. One byte turns some of their
// letters into JSON escapes: "flight\fold" holds a form feed,
// "ingest\barrier" a backspace and "\ngest" a newline.
constexpr std::string_view kRealProfile =
    R"({"interval_us":1000,"samples":104,"slots":13,"truncated":0}
{"count":3,"shard":0,"stack":"sim/epoch;fleet/deliver;ingest/decode"}
{"count":9,"shard":8,"stack":"sim/exchange;ingest/barrier;ingest/detect"}
{"count":4,"shard":8,"stack":"flight/fold"}
{"count":25,"shard":9,"stack":"pool/wait"}
)";

using FrameRows = std::vector<std::tuple<std::string, std::uint64_t,
                                         std::uint64_t>>;

FrameRows frame_rows(const ProfileData& data) {
  FrameRows out;
  for (const FrameStat& s : frame_stats(data)) {
    out.emplace_back(s.frame, s.self, s.total);
  }
  return out;
}

// The reader takes profiles from disk. Every truncation and every
// single-byte mutation of a real one is accepted or rejected with a
// diagnostic. An accepted one renders, and written back and parsed again
// it gives the same frame stats.
TEST(ProfArtifactTest, MutatedProfilesParseCleanlyOrRoundTrip) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  auto check = [&](std::string_view text, const std::string& what) {
    ProfileData data;
    std::string error;
    if (!parse_profile_jsonl(text, &data, &error)) {
      EXPECT_FALSE(error.empty()) << what;
      ++rejected;
      return;
    }
    ++accepted;
    EXPECT_FALSE(profile_table(data).empty()) << what;
    ProfileData again;
    ASSERT_TRUE(parse_profile_jsonl(profile_jsonl(data), &again, &error))
        << what << ": " << error;
    EXPECT_EQ(frame_rows(again), frame_rows(data)) << what;
  };
  for (std::size_t cut = 0; cut <= kRealProfile.size(); ++cut) {
    check(kRealProfile.substr(0, cut), "cut=" + std::to_string(cut));
  }
  for (std::size_t i = 0; i < kRealProfile.size(); ++i) {
    std::string mutated(kRealProfile);
    for (int b = 0; b < 256; ++b) {
      if (static_cast<char>(b) == kRealProfile[i]) continue;
      mutated[i] = static_cast<char>(b);
      check(mutated, "byte=" + std::to_string(i) + " value=" +
                         std::to_string(b));
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ProfArtifactTest, FoldedMergesSlotsForFlamegraphs) {
  ProfileData data = sample_profile();
  data.rows.push_back({1, "sim/epoch", 5});  // same stack, other slot
  EXPECT_EQ(profile_folded(data),
            "pool/wait 40\n"
            "sim/epoch 15\n"
            "sim/epoch;ingest/decode 30\n");
}

// --- frame stats and tables --------------------------------------------------

TEST(ProfReportTest, FrameStatsSeparateSelfFromTotal) {
  const std::vector<FrameStat> stats = frame_stats(sample_profile());
  ASSERT_EQ(stats.size(), 3u);
  // Sorted by descending self: pool/wait 40, decode 30, epoch 10.
  EXPECT_EQ(stats[0].frame, "pool/wait");
  EXPECT_EQ(stats[0].self, 40u);
  EXPECT_EQ(stats[0].total, 40u);
  EXPECT_EQ(stats[1].frame, "ingest/decode");
  EXPECT_EQ(stats[1].self, 30u);
  EXPECT_EQ(stats[2].frame, "sim/epoch");
  EXPECT_EQ(stats[2].self, 10u);
  EXPECT_EQ(stats[2].total, 40u);  // on-stack for the decode samples too
}

TEST(ProfReportTest, RecursionCountsOncePerSample) {
  ProfileData data;
  data.interval_us = 1000;
  data.samples = 7;
  data.slots = 1;
  data.rows.push_back({0, "a;a;a", 7});
  const std::vector<FrameStat> stats = frame_stats(data);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].self, 7u);
  EXPECT_EQ(stats[0].total, 7u);  // NOT 21: once per distinct frame per stack
}

TEST(ProfReportTest, TableRendersSharesOfSampledTime) {
  const std::string table = profile_table(sample_profile());
  EXPECT_NE(table.find("pool/wait"), std::string::npos);
  EXPECT_NE(table.find("50.0"), std::string::npos);  // 40 of 80 sampled
  EXPECT_NE(table.find("(sampled)"), std::string::npos);
}

// Frames past the depth cap were never recorded: the table prints the
// meta line's count and flags a profile that lost any as incomplete, and
// so does a diff against or of such a profile.
TEST(ProfReportTest, TableShowsTruncatedFramesAndFlagsIncompleteProfiles) {
  const std::string complete = profile_table(sample_profile());
  EXPECT_NE(complete.find("(truncated)"), std::string::npos);
  EXPECT_EQ(complete.find("INCOMPLETE"), std::string::npos);
  EXPECT_EQ(profile_diff_table(sample_profile(), sample_profile())
                .find("INCOMPLETE"),
            std::string::npos);
  ProfileData data = sample_profile();
  data.truncated = 34056;
  const std::string table = profile_table(data);
  EXPECT_EQ(table.rfind("== INCOMPLETE profile", 0), 0u) << table;
  EXPECT_NE(table.find("34056 frames dropped"), std::string::npos);
  const std::size_t row = table.find("(truncated)");
  ASSERT_NE(row, std::string::npos) << table;
  EXPECT_NE(table.substr(row, table.find('\n', row) - row).find("34056"),
            std::string::npos)
      << table;
  EXPECT_EQ(profile_diff_table(sample_profile(), data)
                .rfind("== INCOMPLETE profile diff", 0),
            0u);
  EXPECT_EQ(profile_diff_table(data, sample_profile())
                .rfind("== INCOMPLETE profile diff", 0),
            0u);
}

TEST(ProfReportTest, DiffTableNamesTheFramesThatAbsorbedTime) {
  const ProfileData base = sample_profile();
  ProfileData cand = sample_profile();
  cand.rows[1].count = 90;  // decode 30 -> 90: its self-share triples
  const std::string diff = profile_diff_table(base, cand);
  EXPECT_NE(diff.find("profile diff"), std::string::npos);
  EXPECT_NE(diff.find("ingest/decode"), std::string::npos);
  // Regressed frames print a '+' delta and sort first.
  const std::size_t decode = diff.find("ingest/decode");
  const std::size_t wait = diff.find("pool/wait");
  ASSERT_NE(decode, std::string::npos);
  ASSERT_NE(wait, std::string::npos);
  EXPECT_LT(decode, wait);
  EXPECT_NE(diff.find("+"), std::string::npos);
}

// --- sampler on/off byte-identity sweep --------------------------------------

core::FleetScaleConfig prof_sweep_config(int shards, int threads, bool prof) {
  core::FleetScaleConfig cfg;
  // Sized so each run lasts long enough for the sampler to catch open
  // scopes on a loaded 4-core box: at 40 vehicles, 4 of 30 runs under
  // full CPU load folded nothing. At 120 vehicles, once the frame path
  // got about 30% faster, 3 of 4 full `ctest -j4` runs had a run with no
  // sample at all; 200 restores the old run length.
  cfg.vehicles = kSanitized ? 16 : 200;
  cfg.seed = 11;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.run_until = sim::seconds(6);
  cfg.drain = sim::seconds(6);
  cfg.capture = true;        // prove the capture plane doesn't move either
  cfg.ingest_backend = true;  // cover the decode/detect PROF_SCOPE sites
  cfg.prof = prof;
  cfg.prof_opts.interval_us = 200;  // oversample so short runs still fold
  return cfg;
}

TEST(ProfSweepTest, SamplerNeverMovesDeterministicOutputs) {
  const core::FleetScaleOutcome base =
      core::run_fleet_scale(prof_sweep_config(1, 1, false));
  EXPECT_TRUE(base.profile_jsonl.empty());
  EXPECT_EQ(base.prof_samples, 0u);

  for (int shards : {1, 2, 8}) {
    for (int threads : {1, 2, 8}) {
      const core::FleetScaleOutcome out =
          core::run_fleet_scale(prof_sweep_config(shards, threads, true));
      // Every deterministic plane is byte-identical with the sampler on.
      EXPECT_EQ(out.digest, base.digest)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(out.summary, base.summary);
      EXPECT_EQ(out.chrome_trace, base.chrome_trace)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(out.metrics_jsonl, base.metrics_jsonl)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(out.ingest_summary, base.ingest_summary);
      // And the wall-plane artifact actually materialized.
      EXPECT_GT(out.prof_samples, 0u)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_FALSE(out.profile_jsonl.empty());
      EXPECT_FALSE(out.profile_folded.empty());
      ProfileData parsed;
      std::string error;
      ASSERT_TRUE(parse_profile_jsonl(out.profile_jsonl, &parsed, &error))
          << error;
      EXPECT_EQ(parsed.samples, out.prof_samples);
      // Slot layout (telemetry::Planes): shards + coordinator + one per
      // thread (the simulator clamps threads to the shard count).
      EXPECT_EQ(parsed.slots,
                static_cast<std::size_t>(shards + 1 + std::min(shards, threads)));
    }
  }
}

}  // namespace
