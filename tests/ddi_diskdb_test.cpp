#include "ddi/diskdb.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>

namespace vdap::ddi {
namespace {

namespace fs = std::filesystem;

class DiskDbTest : public ::testing::Test {
 protected:
  // A fresh mkdtemp directory per test: concurrent runs of the suite
  // never share (or delete) each other's segments.
  void SetUp() override {
    std::string made =
        (fs::temp_directory_path() / "vdap-diskdb-XXXXXX").string();
    ASSERT_NE(mkdtemp(made.data()), nullptr) << made;
    dir_ = made;
  }
  void TearDown() override { fs::remove_all(dir_); }

  DiskDbOptions opts(std::uint64_t segment_bytes = 4 << 20) {
    return DiskDbOptions{dir_.string(), segment_bytes};
  }

  static DataRecord rec(const std::string& stream, sim::SimTime ts,
                        double lat = 42.0, double lon = -83.0) {
    DataRecord r;
    r.stream = stream;
    r.timestamp = ts;
    r.lat = lat;
    r.lon = lon;
    r.payload["ts"] = ts;
    return r;
  }

  fs::path dir_;
};

TEST_F(DiskDbTest, PutAndQueryRange) {
  DiskDb db(opts());
  for (int i = 0; i < 100; ++i) {
    db.put(rec("obd", sim::seconds(i)));
  }
  auto out = db.query("obd", sim::seconds(10), sim::seconds(19));
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().timestamp, sim::seconds(10));
  EXPECT_EQ(out.back().timestamp, sim::seconds(19));
  EXPECT_EQ(db.record_count(), 100u);
}

TEST_F(DiskDbTest, QueryIsTimeOrderedEvenForUnorderedPuts) {
  DiskDb db(opts());
  for (int i : {5, 1, 9, 3, 7}) db.put(rec("s", sim::seconds(i)));
  auto out = db.query("s", 0, sim::seconds(100));
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].timestamp, out[i].timestamp);
  }
}

TEST_F(DiskDbTest, StreamsAreIndependent) {
  DiskDb db(opts());
  db.put(rec("a", sim::seconds(1)));
  db.put(rec("b", sim::seconds(1)));
  db.put(rec("a", sim::seconds(2)));
  EXPECT_EQ(db.query("a", 0, sim::seconds(10)).size(), 2u);
  EXPECT_EQ(db.query("b", 0, sim::seconds(10)).size(), 1u);
  EXPECT_TRUE(db.query("c", 0, sim::seconds(10)).empty());
  EXPECT_EQ(db.streams().size(), 2u);
}

TEST_F(DiskDbTest, GeoQueryFilters) {
  DiskDb db(opts());
  db.put(rec("s", sim::seconds(1), 42.00, -83.00));
  db.put(rec("s", sim::seconds(2), 42.10, -83.00));
  db.put(rec("s", sim::seconds(3), 42.00, -82.50));
  auto out = db.query_geo("s", 0, sim::seconds(10), 41.95, 42.05, -83.05,
                          -82.95);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].timestamp, sim::seconds(1));
}

TEST_F(DiskDbTest, SegmentsRollAtSizeLimit) {
  DiskDb db(opts(2'000));  // tiny segments
  for (int i = 0; i < 100; ++i) db.put(rec("s", sim::seconds(i)));
  EXPECT_GT(db.segment_count(), 1);
  EXPECT_EQ(db.query("s", 0, sim::seconds(1000)).size(), 100u);
}

TEST_F(DiskDbTest, ReopenRecoversEverything) {
  {
    DiskDb db(opts(2'000));
    for (int i = 0; i < 50; ++i) db.put(rec("obd", sim::seconds(i)));
    db.flush();
  }
  // "Vehicle reboot": a fresh instance over the same directory.
  DiskDb db2(opts(2'000));
  EXPECT_EQ(db2.record_count(), 50u);
  auto out = db2.query("obd", sim::seconds(40), sim::seconds(49));
  EXPECT_EQ(out.size(), 10u);
  // And it keeps accepting writes.
  db2.put(rec("obd", sim::seconds(50)));
  EXPECT_EQ(db2.query("obd", 0, sim::seconds(100)).size(), 51u);
}

TEST_F(DiskDbTest, RecoverySkipsTornTailWrite) {
  {
    DiskDb db(opts());
    for (int i = 0; i < 10; ++i) db.put(rec("s", sim::seconds(i)));
    db.flush();
  }
  // Corrupt the tail: append half a record worth of garbage.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::ofstream f(entry.path(), std::ios::binary | std::ios::app);
    std::uint32_t fake_len = 1000;
    f.write(reinterpret_cast<const char*>(&fake_len), 4);
    f.write("torn", 4);
  }
  DiskDb db2(opts());
  EXPECT_EQ(db2.record_count(), 10u);  // torn tail ignored
}

TEST_F(DiskDbTest, EmptyRangeAndInvertedRange) {
  DiskDb db(opts());
  db.put(rec("s", sim::seconds(5)));
  EXPECT_TRUE(db.query("s", sim::seconds(6), sim::seconds(10)).empty());
  EXPECT_TRUE(db.query("s", sim::seconds(10), sim::seconds(6)).empty());
  // Inclusive boundaries.
  EXPECT_EQ(db.query("s", sim::seconds(5), sim::seconds(5)).size(), 1u);
}

TEST_F(DiskDbTest, RejectsEmptyStreamOrDir) {
  DiskDb db(opts());
  DataRecord r;
  EXPECT_THROW(db.put(r), std::invalid_argument);
  EXPECT_THROW(DiskDb(DiskDbOptions{"", 1024}), std::invalid_argument);
}

TEST_F(DiskDbTest, PayloadSurvivesStorage) {
  DiskDb db(opts());
  DataRecord r = rec("s", sim::seconds(1));
  r.payload["nested"]["deep"] = json::Value(json::Array{1, 2.5, "three"});
  db.put(r);
  auto out = db.query("s", 0, sim::seconds(10));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], r);
}

TEST_F(DiskDbTest, RetentionByByteBudget) {
  DiskDb db(opts(2'000));  // tiny segments -> many of them
  for (int i = 0; i < 200; ++i) db.put(rec("s", sim::seconds(i)));
  db.flush();
  std::uint64_t before_bytes = db.bytes_on_disk();
  int before_segments = db.segment_count();
  ASSERT_GE(before_segments, 5);
  std::uint64_t dropped = db.enforce_retention(before_bytes / 3);
  EXPECT_GT(dropped, 0u);
  EXPECT_LE(db.bytes_on_disk(), before_bytes / 3 + 2'000);
  EXPECT_LT(db.segment_count(), before_segments);
  // The survivors are the newest records, still queryable and ordered.
  auto out = db.query("s", 0, sim::seconds(1000));
  EXPECT_EQ(out.size(), db.record_count());
  EXPECT_EQ(out.back().timestamp, sim::seconds(199));
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].timestamp, out[i].timestamp);
  }
}

TEST_F(DiskDbTest, RetentionByAge) {
  DiskDb db(opts(2'000));
  for (int i = 0; i < 100; ++i) db.put(rec("s", sim::seconds(i)));
  db.flush();
  // Drop everything strictly older than t=50 (segment-granular: only
  // segments whose *newest* record predates the cutoff go).
  db.enforce_retention(0, sim::seconds(50));
  auto out = db.query("s", 0, sim::seconds(1000));
  ASSERT_FALSE(out.empty());
  // Nothing newer than the cutoff was lost.
  EXPECT_EQ(out.back().timestamp, sim::seconds(99));
  std::uint64_t newer = 0;
  for (const auto& r : out) newer += r.timestamp >= sim::seconds(50) ? 1 : 0;
  EXPECT_EQ(newer, 50u);
  // Everything dropped was older than the cutoff.
  EXPECT_LT(out.size(), 100u);
}

TEST_F(DiskDbTest, RetentionNeverTouchesActiveSegment) {
  DiskDb db(opts(1 << 20));  // everything fits one (active) segment
  for (int i = 0; i < 50; ++i) db.put(rec("s", sim::seconds(i)));
  EXPECT_EQ(db.enforce_retention(1), 0u);  // budget absurd, but active stays
  EXPECT_EQ(db.record_count(), 50u);
}

TEST_F(DiskDbTest, RetentionSurvivesReopen) {
  {
    DiskDb db(opts(2'000));
    for (int i = 0; i < 200; ++i) db.put(rec("s", sim::seconds(i)));
    db.flush();
    db.enforce_retention(db.bytes_on_disk() / 2);
  }
  DiskDb db2(opts(2'000));
  auto out = db2.query("s", 0, sim::seconds(1000));
  EXPECT_EQ(out.size(), db2.record_count());
  EXPECT_EQ(out.back().timestamp, sim::seconds(199));
}

TEST_F(DiskDbTest, ThousandsOfRecordsAcrossSegments) {
  DiskDb db(opts(16'000));
  for (int i = 0; i < 5000; ++i) {
    db.put(rec(i % 2 == 0 ? "a" : "b", sim::msec(i)));
  }
  EXPECT_EQ(db.query("a", 0, sim::msec(5000)).size(), 2500u);
  EXPECT_EQ(db.query("b", sim::msec(1000), sim::msec(1999)).size(), 500u);
  EXPECT_GT(db.segment_count(), 5);
}

}  // namespace
}  // namespace vdap::ddi
