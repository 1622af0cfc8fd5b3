#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace vdap::util {
namespace {

TEST(Summary, Empty) {
  Summary s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(Summary, MergeMatchesSequential) {
  RngStream rng(7);
  Summary whole;
  Summary a;
  Summary b;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.add(1.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Histogram, Quantiles) {
  Histogram h;
  for (int i = 100; i >= 1; --i) h.add(i);  // unsorted insert
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.p50(), 50.0, 1.0);
  EXPECT_NEAR(h.p95(), 95.0, 1.0);
  EXPECT_NEAR(h.p99(), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(Histogram, EmptyAndClear) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
  h.add(5);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, QuantileMonotone) {
  Histogram h;
  RngStream rng(11);
  for (int i = 0; i < 500; ++i) h.add(rng.exponential(10.0));
  double prev = h.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    double cur = h.quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Histogram, SampleCapKeepsExactMomentsWhileThinning) {
  Histogram h;
  h.set_sample_cap(64);
  for (int i = 1; i <= 10000; ++i) h.add(i);
  // count/mean/min/max/sum are exact no matter how hard the store thinned.
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.mean(), 5000.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10000.0);
  EXPECT_DOUBLE_EQ(h.sum(), 10000.0 * 10001.0 / 2.0);
  // Memory stays bounded by the cap.
  EXPECT_LE(h.retained(), 64u);
  EXPECT_GT(h.retained(), 0u);
  // Quantiles come from the uniform subsample: approximate but sane.
  EXPECT_NEAR(h.p50(), 5000.0, 1000.0);
  EXPECT_GE(h.p95(), h.p50());
  // The exact extremes still anchor q=0 / q=1.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10000.0);
}

TEST(Histogram, SampleCapAppliesRetroactively) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(i);
  EXPECT_EQ(h.retained(), 1000u);
  h.set_sample_cap(100);
  EXPECT_LE(h.retained(), 100u);
  EXPECT_EQ(h.count(), 1000u);  // exact totals untouched
}

TEST(Histogram, ThinningIsDeterministic) {
  auto build = []() {
    Histogram h;
    h.set_sample_cap(32);
    for (int i = 0; i < 5000; ++i) h.add((i * 37) % 1000);
    return h;
  };
  Histogram a = build();
  Histogram b = build();
  for (double q = 0.0; q <= 1.0; q += 0.1) {
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q));
  }
  EXPECT_EQ(a.retained(), b.retained());
}

TEST(Histogram, MergeCombinesExactMoments) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 50; ++i) a.add(i);
  for (int i = 51; i <= 100; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.mean(), 50.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  EXPECT_NEAR(a.p50(), 50.0, 1.0);

  // Merging into an empty histogram copies the other's stats.
  Histogram empty;
  empty.merge(a);
  EXPECT_EQ(empty.count(), 100u);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  // And merging an empty one changes nothing.
  a.merge(Histogram{});
  EXPECT_EQ(a.count(), 100u);
}

// Percentile-accuracy bounds (DESIGN.md §6): the SLO evaluator judges p95
// over capped windows, so thinning error must stay a small fraction of the
// value range. A permutation of 1..N makes the exact quantiles known.
TEST(Histogram, PercentileAccuracyBoundsUnderThinning) {
  constexpr int kN = 20000;
  Histogram exact;
  Histogram thinned;
  thinned.set_sample_cap(512);
  for (int i = 0; i < kN; ++i) {
    double v = static_cast<double>((i * 7919) % kN + 1);  // permutation
    exact.add(v);
    thinned.add(v);
  }
  EXPECT_NEAR(exact.p50(), kN * 0.50, 2.0);
  EXPECT_NEAR(exact.p95(), kN * 0.95, 2.0);
  EXPECT_NEAR(exact.p99(), kN * 0.99, 2.0);

  EXPECT_LE(thinned.retained(), 512u);
  // The thinned subsample is uniform over arrival order, so each quantile
  // stays within 5% of the range of its exact value.
  EXPECT_NEAR(thinned.p50(), exact.p50(), kN * 0.05);
  EXPECT_NEAR(thinned.p95(), exact.p95(), kN * 0.05);
  EXPECT_NEAR(thinned.p99(), exact.p99(), kN * 0.05);
  // The tracked extremes stay exact.
  EXPECT_DOUBLE_EQ(thinned.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(thinned.quantile(1.0), kN);
}

TEST(Histogram, PercentileAccuracyBoundsAfterMergingThinnedAndUnthinned) {
  constexpr int kN = 20000;  // per part; union covers 1..2N
  Histogram thinned_evens;
  thinned_evens.set_sample_cap(512);
  Histogram exact_odds;
  for (int i = 0; i < kN; ++i) {
    int k = (i * 7919) % kN;
    thinned_evens.add(static_cast<double>(2 * k + 2));
    exact_odds.add(static_cast<double>(2 * k + 1));
  }

  // Uncapped destination: both parts sample the same 1..2N range, so the
  // pooled quantiles track the union even though the thinned part
  // contributes far fewer retained samples.
  Histogram merged = exact_odds;
  merged.merge(thinned_evens);
  EXPECT_EQ(merged.count(), 2u * kN);
  EXPECT_NEAR(merged.p50(), kN, 2 * kN * 0.05);
  EXPECT_NEAR(merged.p95(), 2 * kN * 0.95, 2 * kN * 0.05);
  EXPECT_NEAR(merged.p99(), 2 * kN * 0.99, 2 * kN * 0.05);

  // Capped destination: the merge re-thins to the cap without losing the
  // accuracy bound or the exact moments.
  Histogram capped = thinned_evens;
  capped.merge(exact_odds);
  EXPECT_LE(capped.retained(), 512u);
  EXPECT_EQ(capped.count(), 2u * kN);
  EXPECT_DOUBLE_EQ(capped.min(), 1.0);
  EXPECT_DOUBLE_EQ(capped.max(), 2.0 * kN);
  EXPECT_NEAR(capped.p50(), kN, 2 * kN * 0.05);
  EXPECT_NEAR(capped.p95(), 2 * kN * 0.95, 2 * kN * 0.05);
  EXPECT_NEAR(capped.p99(), 2 * kN * 0.99, 2 * kN * 0.05);
}

TEST(Histogram, MergeRespectsCapOfTheDestination) {
  Histogram a;
  a.set_sample_cap(64);
  Histogram b;
  for (int i = 0; i < 1000; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_LE(a.retained(), 64u);
}

// add_bulk's contract (columnar block sealing leans on it): bit-identical
// to the same values fed through repeated add() — same exact moments,
// same retained samples, same quantiles — across cap and stride
// transitions.
void expect_same_state(const Histogram& bulk, const Histogram& loop) {
  EXPECT_EQ(bulk.count(), loop.count());
  EXPECT_EQ(bulk.retained(), loop.retained());
  EXPECT_EQ(bulk.sum(), loop.sum());  // exact: same fp fold order
  EXPECT_EQ(bulk.min(), loop.min());
  EXPECT_EQ(bulk.max(), loop.max());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(bulk.quantile(q), loop.quantile(q)) << "q=" << q;
  }
}

TEST(Histogram, AddBulkMatchesRepeatedAddUncapped) {
  RngStream rng(41);
  std::vector<double> xs;
  for (int i = 0; i < 777; ++i) xs.push_back(rng.normal(10.0, 4.0));
  Histogram bulk;
  Histogram loop;
  bulk.add_bulk(xs.data(), xs.size());
  for (double x : xs) loop.add(x);
  expect_same_state(bulk, loop);
  // Empty and single-element bulks are fine too.
  bulk.add_bulk(xs.data(), 0);
  bulk.add_bulk(xs.data(), 1);
  loop.add(xs[0]);
  expect_same_state(bulk, loop);
}

TEST(Histogram, AddBulkMatchesRepeatedAddAcrossThinningBoundary) {
  RngStream rng(42);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.normal(0.0, 1.0));
  // Cap 256: the stream crosses several cap-fill / stride-doubling
  // transitions, and the bulk spans them mid-call.
  Histogram bulk;
  bulk.set_sample_cap(256);
  Histogram loop;
  loop.set_sample_cap(256);
  bulk.add_bulk(xs.data(), 300);            // crosses the first thinning
  bulk.add_bulk(xs.data() + 300, 1700);     // crosses several more
  for (double x : xs) loop.add(x);
  expect_same_state(bulk, loop);
  EXPECT_LE(bulk.retained(), 256u);
  EXPECT_EQ(bulk.count(), 2000u);
}

TEST(Histogram, AddBulkThenMergeMatchesAddThenMerge) {
  RngStream rng(43);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(5.0, 2.0));
  for (int i = 0; i < 400; ++i) ys.push_back(rng.normal(9.0, 3.0));
  Histogram bulk_a;
  Histogram bulk_b;
  bulk_a.set_sample_cap(128);
  bulk_b.set_sample_cap(128);
  bulk_a.add_bulk(xs.data(), xs.size());
  bulk_b.add_bulk(ys.data(), ys.size());
  bulk_a.merge(bulk_b);
  Histogram loop_a;
  Histogram loop_b;
  loop_a.set_sample_cap(128);
  loop_b.set_sample_cap(128);
  for (double x : xs) loop_a.add(x);
  for (double y : ys) loop_b.add(y);
  loop_a.merge(loop_b);
  expect_same_state(bulk_a, loop_a);
}

TEST(CounterSet, MergeAddsAndResetClears) {
  CounterSet a;
  CounterSet b;
  a.inc("x", 2);
  b.inc("x", 3);
  b.inc("y", 1);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 5);
  EXPECT_EQ(a.get("y"), 1);
  // The merged-in set is left as it was.
  EXPECT_EQ(b.get("x"), 3);
  EXPECT_EQ(b.all().size(), 2u);
}

TEST(CounterSet, IncrementAndRead) {
  CounterSet c;
  EXPECT_EQ(c.get("x"), 0);
  c.inc("x");
  c.inc("x", 4);
  c.inc("y", 2);
  EXPECT_EQ(c.get("x"), 5);
  EXPECT_EQ(c.get("y"), 2);
  EXPECT_EQ(c.all().size(), 2u);
}

TEST(TextTable, AlignsColumns) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "2.50"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, NumFormat) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTable, StructuredAccessors) {
  TextTable t("accessors");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.title(), "accessors");
  ASSERT_EQ(t.header().size(), 2u);
  EXPECT_EQ(t.header()[1], "b");
  ASSERT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.rows()[1][0], "3");
}

TEST(TextTable, NoHeaderMeansNoSeparator) {
  TextTable t;
  t.add_row({"just", "rows"});
  std::string s = t.to_string();
  EXPECT_EQ(s.find("=="), std::string::npos);    // no title banner
  EXPECT_EQ(s.find("----"), std::string::npos);  // no header separator
  EXPECT_NE(s.find("just"), std::string::npos);
}

TEST(Rng, DeterministicStreams) {
  RngStream a(42, "alpha");
  RngStream b(42, "alpha");
  RngStream c(42, "beta");
  double av = a.uniform();
  EXPECT_DOUBLE_EQ(av, b.uniform());
  EXPECT_NE(av, c.uniform());
}

TEST(Rng, RangesRespected) {
  RngStream r(3);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
    auto n = r.uniform_int(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
    EXPECT_GE(r.exponential(4.0), 0.0);
    EXPECT_GE(r.normal_min(0.0, 1.0, -0.5), -0.5);
  }
}

TEST(Rng, ChanceExtremes) {
  RngStream r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

}  // namespace
}  // namespace vdap::util
