#include "libvdap/api.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "hw/catalog.hpp"

namespace vdap::libvdap {
namespace {

namespace fs = std::filesystem;

TEST(ApiRouter, ExactAndParamRoutes) {
  ApiRouter router;
  router.route(Method::kGet, "/v1/ping",
               [](const ApiRequest&, const PathParams&) {
                 return ApiResponse::ok(json::Value("pong"));
               });
  router.route(Method::kGet, "/v1/things/:id",
               [](const ApiRequest&, const PathParams& p) {
                 json::Value body;
                 body["id"] = p.at("id");
                 return ApiResponse::ok(std::move(body));
               });
  EXPECT_EQ(router.handle({Method::kGet, "/v1/ping", {}}).status, 200);
  auto resp = router.handle({Method::kGet, "/v1/things/42", {}});
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.get_string("id"), "42");
}

TEST(ApiRouter, NotFoundAndMethodNotAllowed) {
  ApiRouter router;
  router.route(Method::kGet, "/v1/x",
               [](const ApiRequest&, const PathParams&) {
                 return ApiResponse::ok();
               });
  EXPECT_EQ(router.handle({Method::kGet, "/v1/nope", {}}).status, 404);
  EXPECT_EQ(router.handle({Method::kPost, "/v1/x", {}}).status, 405);
  // Trailing slash normalizes (split drops empties).
  EXPECT_EQ(router.handle({Method::kGet, "/v1/x/", {}}).status, 200);
}

TEST(ApiRouter, MultipleParams) {
  ApiRouter router;
  router.route(Method::kGet, "/a/:x/b/:y",
               [](const ApiRequest&, const PathParams& p) {
                 json::Value body;
                 body["xy"] = p.at("x") + p.at("y");
                 return ApiResponse::ok(std::move(body));
               });
  auto resp = router.handle({Method::kGet, "/a/1/b/2", {}});
  EXPECT_EQ(resp.body.get_string("xy"), "12");
  EXPECT_EQ(router.handle({Method::kGet, "/a/1/b", {}}).status, 404);
}

class LibVdapTest : public ::testing::Test {
 protected:
  LibVdapTest()
      : dir_(make_dir()),
        cpu_(sim_, hw::catalog::core_i7_6700()),
        ddi_(sim_, make_opts()) {
    reg_.join(&cpu_);
    api_ = std::make_unique<LibVdap>(ModelRegistry::with_default_catalog(),
                                     reg_, ddi_);
  }
  ~LibVdapTest() override { fs::remove_all(dir_); }

  /// A fresh `<temp>/vdap-api-test-XXXXXX` per fixture (mkdtemp), so
  /// concurrent runs of this binary never share one.
  static fs::path make_dir() {
    std::string dir =
        (fs::temp_directory_path() / "vdap-api-test-XXXXXX").string();
    if (mkdtemp(dir.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(), "mkdtemp " + dir);
    }
    return dir;
  }

  ddi::DdiOptions make_opts() {
    ddi::DdiOptions o;
    o.disk.dir = dir_.string();
    return o;
  }

  fs::path dir_;
  sim::Simulator sim_;
  hw::ComputeDevice cpu_;
  vcu::ResourceRegistry reg_;
  ddi::Ddi ddi_;
  std::unique_ptr<LibVdap> api_;
};

TEST_F(LibVdapTest, ListModels) {
  auto resp = api_->get("/v1/models");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.at("models").size(), 10u);
}

TEST_F(LibVdapTest, GetModelByName) {
  auto resp = api_->get("/v1/models/inception-v3-edge");
  ASSERT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.body.get_bool("compressed"));
  EXPECT_EQ(resp.body.get_string("base_model"), "inception-v3");
  EXPECT_LT(resp.body.get_int("size_bytes"), 10'000'000);
  EXPECT_EQ(api_->get("/v1/models/ghost").status, 404);
}

TEST_F(LibVdapTest, ResourceProfilesOverApi) {
  auto resp = api_->get("/v1/resources");
  ASSERT_EQ(resp.status, 200);
  ASSERT_EQ(resp.body.at("resources").size(), 1u);
  const json::Value& dev = resp.body.at("resources").at(std::size_t{0});
  EXPECT_EQ(dev.get_string("device"), "core-i7-6700");
  EXPECT_TRUE(dev.get_bool("online"));
  auto one = api_->get("/v1/resources/core-i7-6700");
  EXPECT_EQ(one.status, 200);
  EXPECT_EQ(api_->get("/v1/resources/ghost").status, 404);
}

TEST_F(LibVdapTest, DataUploadAndQueryThroughApi) {
  json::Value rec;
  rec["stream"] = "vehicle/obd";
  rec["ts"] = 1'000'000;
  rec["lat"] = 42.0;
  rec["lon"] = -83.0;
  rec["payload"]["speed_mps"] = 12.5;
  EXPECT_EQ(api_->post("/v1/data/upload", rec).status, 200);

  json::Value q;
  q["stream"] = "vehicle/obd";
  q["t0"] = 0;
  q["t1"] = 2'000'000;
  auto resp = api_->post("/v1/data/query", q);
  ASSERT_EQ(resp.status, 200);
  ASSERT_EQ(resp.body.at("records").size(), 1u);
  EXPECT_DOUBLE_EQ(resp.body.at("records")
                       .at(std::size_t{0})
                       .at("payload")
                       .get_double("speed_mps"),
                   12.5);
  // Second identical query comes from cache.
  auto warm = api_->post("/v1/data/query", q);
  EXPECT_TRUE(warm.body.get_bool("from_cache"));
}

TEST_F(LibVdapTest, DataQueryValidation) {
  EXPECT_EQ(api_->post("/v1/data/query", json::Value(1)).status, 400);
  EXPECT_EQ(api_->post("/v1/data/upload", json::Value()).status, 400);
}

TEST_F(LibVdapTest, PBeamRoutes) {
  EXPECT_EQ(api_->get("/v1/pbeam").status, 404);  // not built yet
  util::RngStream rng(21);
  api_->attach_pbeam(PBeam::build(synth_fleet_dataset(100, rng), {}, rng));
  auto info = api_->get("/v1/pbeam");
  ASSERT_EQ(info.status, 200);
  EXPECT_GT(info.body.get_int("dense_bytes"),
            info.body.get_int("compressed_bytes"));

  // Score an unambiguously aggressive feature vector (fixed, so the test
  // does not depend on a random draw landing far from the class boundary).
  DrivingFeatures f;
  f.mean_speed_mps = 25.0;
  f.speed_stddev = 8.0;
  f.accel_stddev = 2.2;
  f.harsh_brake_rate = 3.0;
  f.harsh_accel_rate = 2.8;
  f.mean_abs_jerk = 3.0;
  f.overspeed_frac = 0.35;
  json::Value body;
  body["mean_speed_mps"] = f.mean_speed_mps;
  body["speed_stddev"] = f.speed_stddev;
  body["accel_stddev"] = f.accel_stddev;
  body["harsh_brake_rate"] = f.harsh_brake_rate;
  body["harsh_accel_rate"] = f.harsh_accel_rate;
  body["mean_abs_jerk"] = f.mean_abs_jerk;
  body["overspeed_frac"] = f.overspeed_frac;
  auto score = api_->post("/v1/pbeam/score", body);
  ASSERT_EQ(score.status, 200);
  EXPECT_GT(score.body.get_double("aggressiveness"), 0.5);
  EXPECT_EQ(score.body.get_string("style"), "aggressive");
}

TEST_F(LibVdapTest, DefaultCatalogShape) {
  ModelRegistry reg = ModelRegistry::with_default_catalog();
  EXPECT_EQ(reg.size(), 10u);
  // Every compressed variant is smaller than its base.
  for (const ModelSpec& m : reg.list()) {
    if (!m.compressed) continue;
    auto base = reg.find(m.base_model);
    ASSERT_TRUE(base.has_value()) << m.name;
    EXPECT_LT(m.size_bytes, base->size_bytes / 5) << m.name;
    EXPECT_LT(base->accuracy - m.accuracy, 0.05) << m.name;
  }
  // Edge budget filtering.
  auto edge = reg.edge_deployable(20'000'000);
  for (const auto& m : edge) EXPECT_LE(m.size_bytes, 20'000'000u);
  EXPECT_FALSE(edge.empty());
  EXPECT_LT(edge.size(), reg.size());
  // Domains are covered.
  EXPECT_FALSE(reg.by_domain(ModelDomain::kNlp).empty());
  EXPECT_FALSE(reg.by_domain(ModelDomain::kAudio).empty());
  EXPECT_FALSE(reg.by_domain(ModelDomain::kVideo).empty());
  EXPECT_FALSE(reg.by_domain(ModelDomain::kDriving).empty());
  // Duplicate registration rejected.
  EXPECT_THROW(reg.add({"cbeam", ModelDomain::kDriving,
                        hw::TaskClass::kCnnInference, 1, 1, 1, false, ""}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vdap::libvdap
