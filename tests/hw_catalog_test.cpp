// Catalog calibration tests: the device models must reproduce the paper's
// published numbers (Fig. 3 and Table I) exactly at the model level — these
// anchors are what every scheduling/offloading experiment builds on.
#include "hw/catalog.hpp"

#include <gtest/gtest.h>

#include "hw/board.hpp"

namespace vdap::hw {
namespace {

double inception_ms(const ProcessorSpec& s) {
  auto d = s.service_time(TaskClass::kCnnInference, kInceptionV3Gflop);
  return d ? sim::to_millis(*d) : -1.0;
}

// Fig. 3 anchors: Inception v3 processing time per processor.
struct Fig3Case {
  const char* device;
  double paper_ms;
  double paper_power_w;
};

// Names each case (and its ctest entry) by device. Without it gtest prints
// the struct's raw bytes, pointer included, so the names changed every build.
void PrintTo(const Fig3Case& c, std::ostream* os) { *os << c.device; }

class Fig3Calibration : public ::testing::TestWithParam<Fig3Case> {};

TEST_P(Fig3Calibration, TimeAndPowerMatchPaper) {
  const Fig3Case& c = GetParam();
  auto spec = catalog::by_name(c.device);
  ASSERT_TRUE(spec.has_value()) << c.device;
  EXPECT_NEAR(inception_ms(*spec), c.paper_ms, c.paper_ms * 0.005);
  EXPECT_DOUBLE_EQ(spec->max_power_w, c.paper_power_w);
}

INSTANTIATE_TEST_SUITE_P(
    PaperDevices, Fig3Calibration,
    ::testing::Values(Fig3Case{"intel-mncs", 334.5, 1.0},
                      Fig3Case{"jetson-tx2-maxq", 242.8, 7.5},
                      Fig3Case{"jetson-tx2-maxp", 114.3, 15.0},
                      Fig3Case{"core-i7-6700", 153.9, 60.0},
                      Fig3Case{"tesla-v100", 26.8, 250.0}));

TEST(Fig3Shape, V100FastestButMostPowerHungry) {
  auto specs = {catalog::intel_mncs(), catalog::jetson_tx2_maxq(),
                catalog::jetson_tx2_maxp(), catalog::core_i7_6700()};
  auto v100 = catalog::tesla_v100();
  for (const auto& s : specs) {
    EXPECT_LT(inception_ms(v100), inception_ms(s)) << s.name;
    EXPECT_GT(v100.max_power_w, s.max_power_w) << s.name;
  }
}

// Table I anchors on the EC2 vCPU device.
TEST(TableICalibration, LaneDetection) {
  auto s = catalog::ec2_vcpu();
  auto d = s.service_time(TaskClass::kVisionClassic, 0.10856);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(sim::to_millis(*d), 13.57, 0.01);
}

TEST(TableICalibration, VehicleDetectionHaar) {
  auto s = catalog::ec2_vcpu();
  auto d = s.service_time(TaskClass::kVisionClassic, 2.15568);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(sim::to_millis(*d), 269.46, 0.01);
}

TEST(TableICalibration, VehicleDetectionTensorFlow) {
  auto s = catalog::ec2_vcpu();
  auto d = s.service_time(TaskClass::kCnnInference, 27.94396);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(sim::to_millis(*d), 13971.98, 0.01);
}

TEST(TableIShape, HaarIsRoughly51xFasterThanTensorFlow) {
  // "the latency of Haar-based algorithm significantly outperforms (around
  // 51x faster) than the TensorFlow-based" (§II-B).
  double ratio = 13971.98 / 269.46;
  EXPECT_NEAR(ratio, 51.9, 1.0);
}

TEST(Catalog, ByNameFindsEveryEntry) {
  for (const auto& s : catalog::all()) {
    auto found = catalog::by_name(s.name);
    ASSERT_TRUE(found.has_value()) << s.name;
    EXPECT_EQ(found->max_power_w, s.max_power_w);
  }
  EXPECT_FALSE(catalog::by_name("no-such-device").has_value());
}

TEST(Catalog, SpecsAreSane) {
  for (const auto& s : catalog::all()) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_GT(s.slots, 0) << s.name;
    EXPECT_GT(s.max_power_w, 0.0) << s.name;
    EXPECT_GE(s.idle_power_w, 0.0) << s.name;
    EXPECT_LT(s.idle_power_w, s.max_power_w) << s.name;
    EXPECT_FALSE(s.gflops.empty()) << s.name;
    for (const auto& [cls, tput] : s.gflops) {
      EXPECT_GT(tput, 0.0) << s.name << "/" << to_string(cls);
    }
  }
}

TEST(Catalog, EdgeTiersOrderedByCnnThroughput) {
  // vehicle GPU < RSU < base station < cloud — the two-tier premise (§I).
  double vehicle = catalog::jetson_tx2_maxp().throughput(TaskClass::kCnnInference);
  double rsu = catalog::rsu_edge_server().throughput(TaskClass::kCnnInference);
  double bs = catalog::basestation_edge_server().throughput(TaskClass::kCnnInference);
  double cloud = catalog::cloud_server().throughput(TaskClass::kCnnInference);
  EXPECT_LT(vehicle, rsu);
  EXPECT_LT(rsu, bs);
  EXPECT_LT(bs, cloud);
}

TEST(Catalog, AsicOnlyRunsCnn) {
  auto s = catalog::cnn_asic();
  EXPECT_TRUE(s.supports(TaskClass::kCnnInference));
  EXPECT_FALSE(s.supports(TaskClass::kGeneric));
  EXPECT_FALSE(s.supports(TaskClass::kVisionClassic));
}

TEST(Board, ReferenceBoardComposition) {
  sim::Simulator sim;
  VcuBoard board(sim, "vcu");
  populate_reference_1sthep(board);
  EXPECT_EQ(board.devices().size(), 4u);
  EXPECT_NE(board.device("core-i7-6700"), nullptr);
  EXPECT_NE(board.device("jetson-tx2-maxp"), nullptr);
  EXPECT_NE(board.device("automotive-fpga"), nullptr);
  EXPECT_NE(board.device("cnn-asic"), nullptr);
  EXPECT_EQ(board.device("tesla-v100"), nullptr);
  EXPECT_DOUBLE_EQ(board.max_power_w(), 60.0 + 15.0 + 10.0 + 8.0);
}

TEST(Board, PowerHungryRigExceedsReferenceBudget) {
  // §III-B: "the combination of one CPU and one powerful GPU ... will cost
  // hundreds of watts".
  sim::Simulator sim;
  VcuBoard ref(sim, "ref");
  populate_reference_1sthep(ref);
  VcuBoard rig(sim, "rig");
  populate_power_hungry_rig(rig);
  EXPECT_GT(rig.max_power_w(), 300.0);
  EXPECT_LT(ref.max_power_w(), 100.0);
}

TEST(Board, EnergyAggregatesAcrossDevices) {
  sim::Simulator sim;
  VcuBoard board(sim, "vcu");
  populate_reference_1sthep(board);
  auto* cpu = board.device("core-i7-6700");
  ASSERT_NE(cpu, nullptr);
  cpu->submit({TaskClass::kGeneric, 25.0, 0, nullptr});  // 1 s on 25 GF/s
  sim.run_until(sim::seconds(2));
  EXPECT_GT(board.energy_joules(), 0.0);
  EXPECT_GE(board.power_now(), 0.0);
}

}  // namespace
}  // namespace vdap::hw
