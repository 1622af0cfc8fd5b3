#include "net/video.hpp"

#include <gtest/gtest.h>

namespace vdap::net {
namespace {

TEST(VideoStreamSpec, PaperStreams) {
  auto s720 = VideoStreamSpec::hd720();
  auto s1080 = VideoStreamSpec::hd1080();
  EXPECT_DOUBLE_EQ(s720.bitrate_mbps, 3.8);
  EXPECT_DOUBLE_EQ(s1080.bitrate_mbps, 5.8);
  EXPECT_EQ(s720.fps, 30);
  EXPECT_EQ(s720.frames_per_gop(), 60);  // one key frame per two seconds
}

TEST(VideoStreamSpec, FrameSizesConserveBitrate) {
  auto s = VideoStreamSpec::hd1080();
  std::uint64_t gop_bytes =
      s.key_frame_bytes() +
      static_cast<std::uint64_t>(s.frames_per_gop() - 1) * s.p_frame_bytes();
  double gop_expected = s.bitrate_mbps * 1e6 / 8.0 * s.gop_seconds;
  EXPECT_NEAR(static_cast<double>(gop_bytes), gop_expected,
              gop_expected * 0.01);
  EXPECT_NEAR(static_cast<double>(s.key_frame_bytes()),
              s.keyframe_size_ratio * static_cast<double>(s.p_frame_bytes()),
              2.0);
}

TEST(RtpUpload, CleanChannelDeliversAlmostEverything) {
  LteMobilityParams lte;
  auto stats = run_fig2_cell(0.0, VideoStreamSpec::hd720(), 99, 120.0, lte);
  EXPECT_GT(stats.packets_sent, 10'000u);
  EXPECT_LT(stats.packet_loss_rate(), 0.02);
  EXPECT_EQ(stats.frames_total, 3600u);
  EXPECT_EQ(stats.gops_total, 60u);
}

TEST(RtpUpload, FrameLossAtLeastGopAmplified) {
  // Under the paper's counting policy frame loss is always >= the fraction
  // of lost GOPs, and a lost GOP loses all its frames.
  auto stats = run_fig2_cell(35.0, VideoStreamSpec::hd1080(), 3, 120.0);
  EXPECT_EQ(stats.frames_lost % 1, 0u);
  double gop_rate = static_cast<double>(stats.gops_lost) / stats.gops_total;
  EXPECT_NEAR(stats.frame_loss_rate(), gop_rate, 0.02);
}

TEST(RtpUpload, FrameLossExceedsPacketLoss) {
  // The paper: "the frame loss rate is bigger than the packet loss rate for
  // all the cases."
  for (double mph : {0.0, 35.0, 70.0}) {
    for (auto spec : {VideoStreamSpec::hd720(), VideoStreamSpec::hd1080()}) {
      auto stats = run_fig2_cell(mph, spec, 11, 120.0);
      EXPECT_GE(stats.frame_loss_rate(), stats.packet_loss_rate())
          << mph << " " << spec.name;
    }
  }
}

TEST(RtpUpload, LossIncreasesWithSpeed) {
  // "the data loss rate increases exponentially with the increase of
  // moving speed".
  for (auto spec : {VideoStreamSpec::hd720(), VideoStreamSpec::hd1080()}) {
    double prev_packet = -1.0;
    double prev_frame = -1.0;
    for (double mph : {0.0, 35.0, 70.0}) {
      auto stats = run_fig2_cell(mph, spec, 17, 150.0);
      EXPECT_GT(stats.packet_loss_rate(), prev_packet) << mph << spec.name;
      EXPECT_GT(stats.frame_loss_rate(), prev_frame) << mph << spec.name;
      prev_packet = stats.packet_loss_rate();
      prev_frame = stats.frame_loss_rate();
    }
  }
}

TEST(RtpUpload, HigherResolutionLosesMore) {
  for (double mph : {35.0, 70.0}) {
    auto lo = run_fig2_cell(mph, VideoStreamSpec::hd720(), 23, 150.0);
    auto hi = run_fig2_cell(mph, VideoStreamSpec::hd1080(), 23, 150.0);
    EXPECT_GT(hi.packet_loss_rate(), lo.packet_loss_rate()) << mph;
    EXPECT_GE(hi.frame_loss_rate(), lo.frame_loss_rate()) << mph;
  }
}

TEST(RtpUpload, SeventyMphIsCatastrophicFor1080p) {
  // Paper: "more than 80% data loss rate" (frames) at 70 MPH / 1080P.
  auto stats = run_fig2_cell(70.0, VideoStreamSpec::hd1080(), 29, 300.0);
  EXPECT_GT(stats.frame_loss_rate(), 0.80);
  EXPECT_GT(stats.packet_loss_rate(), 0.40);
}

TEST(RtpUpload, DeterministicForSeed) {
  auto a = run_fig2_cell(35.0, VideoStreamSpec::hd720(), 5, 60.0);
  auto b = run_fig2_cell(35.0, VideoStreamSpec::hd720(), 5, 60.0);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
}

TEST(RtpUpload, ByteConservation) {
  auto stats = run_fig2_cell(35.0, VideoStreamSpec::hd720(), 5, 60.0);
  EXPECT_LE(stats.bytes_delivered, stats.bytes_offered);
  EXPECT_EQ(stats.packets_sent > stats.packets_lost, true);
  // Delivered + lost accounts for every packet (lost includes tail drops,
  // air losses, and end-of-session stragglers).
  EXPECT_GT(stats.bytes_delivered, 0u);
}

TEST(RtpUpload, RejectsNonPositiveDuration) {
  LteMobilityParams p;
  CellularChannel ch(p, 0.0, 10.0, 1);
  EXPECT_THROW(
      simulate_rtp_upload(ch, VideoStreamSpec::hd720(), 0.0, 1),
      std::invalid_argument);
}

// Parameterized Fig. 2 reproduction: every cell must land in a band around
// the paper's bar (generous at the low-loss end where absolute values are
// tiny, tighter at the catastrophic end).
struct Fig2Band {
  double mph;
  bool hd1080;
  double paper_packet;
  double paper_frame;
  double packet_lo, packet_hi;
  double frame_lo, frame_hi;
};

// Names each cell (and its ctest entry) e.g. "35mph-1080p". Without it gtest
// prints the struct's raw bytes, uninitialised padding included, so the
// names changed every build.
void PrintTo(const Fig2Band& b, std::ostream* os) {
  *os << b.mph << "mph-" << (b.hd1080 ? "1080p" : "720p");
}

class Fig2Bands : public ::testing::TestWithParam<Fig2Band> {};

TEST_P(Fig2Bands, WithinBand) {
  const auto& b = GetParam();
  auto spec =
      b.hd1080 ? VideoStreamSpec::hd1080() : VideoStreamSpec::hd720();
  // Average three seeds to damp run-to-run variance, as the bench does.
  double packet = 0.0, frame = 0.0;
  for (std::uint64_t seed : {101, 202, 303}) {
    auto stats = run_fig2_cell(b.mph, spec, seed, 300.0);
    packet += stats.packet_loss_rate() / 3.0;
    frame += stats.frame_loss_rate() / 3.0;
  }
  EXPECT_GE(packet, b.packet_lo);
  EXPECT_LE(packet, b.packet_hi);
  EXPECT_GE(frame, b.frame_lo);
  EXPECT_LE(frame, b.frame_hi);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCells, Fig2Bands,
    ::testing::Values(
        // mph, 1080?, paper(P,F), packet band, frame band
        Fig2Band{0, false, 0.002, 0.012, 0.0, 0.02, 0.0, 0.08},
        Fig2Band{0, true, 0.006, 0.027, 0.0, 0.03, 0.0, 0.10},
        Fig2Band{35, false, 0.021, 0.390, 0.005, 0.08, 0.15, 0.60},
        Fig2Band{35, true, 0.070, 0.763, 0.02, 0.15, 0.35, 0.90},
        Fig2Band{70, false, 0.535, 0.911, 0.35, 0.70, 0.80, 1.0},
        Fig2Band{70, true, 0.617, 0.980, 0.45, 0.80, 0.90, 1.0}));

}  // namespace
}  // namespace vdap::net
