#include "analysis/update.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_ap;
using test::add_sample;
using test::campaign;
using test::campaign_classification;
using test::empty_dataset;

UpdateDetectOptions detect_2015() {
  UpdateDetectOptions opt;
  opt.min_day = 9;
  return opt;
}

TEST(UpdateDetect, FindsSyntheticBurst) {
  Dataset ds = empty_dataset(2, 15);  // device 1 is iOS
  const TimeBin start = static_cast<TimeBin>(10 * kBinsPerDay + 120);
  for (int k = 0; k < 4; ++k) {
    add_sample(ds, 1, static_cast<TimeBin>(start + k), 0, 150'000'000u,
               WifiState::Associated, kNoAp);
  }
  test::build_index(ds);
  const UpdateDetection det = detect_updates(ds, detect_2015());
  EXPECT_EQ(det.num_ios, 1);
  EXPECT_EQ(det.num_updated, 1);
  EXPECT_EQ(det.update_bin[1], static_cast<std::int32_t>(start));
  EXPECT_EQ(det.update_bin[0], -1);  // Android device ignored
}

TEST(UpdateDetect, SlowAccumulationNotDetected) {
  Dataset ds = empty_dataset(2, 15);
  // 600 MB spread thinly over a whole day: never 80 MB in a bin.
  for (int k = 0; k < kBinsPerDay; ++k) {
    add_sample(ds, 1, static_cast<TimeBin>(10 * kBinsPerDay + k), 0,
               4'200'000u, WifiState::Associated, kNoAp);
  }
  test::build_index(ds);
  const UpdateDetection det = detect_updates(ds, detect_2015());
  EXPECT_EQ(det.num_updated, 0);
}

TEST(UpdateDetect, BurstBeforeMinDayIgnored) {
  Dataset ds = empty_dataset(2, 15);
  for (int k = 0; k < 4; ++k) {
    add_sample(ds, 1, static_cast<TimeBin>(2 * kBinsPerDay + k), 0,
               150'000'000u, WifiState::Associated, kNoAp);
  }
  test::build_index(ds);
  EXPECT_EQ(detect_updates(ds, detect_2015()).num_updated, 0);
  // Without the hint it is detected.
  EXPECT_EQ(detect_updates(ds).num_updated, 1);
}

TEST(UpdateDetect, CellularBurstDoesNotCount) {
  Dataset ds = empty_dataset(2, 15);
  for (int k = 0; k < 4; ++k) {
    add_sample(ds, 1, static_cast<TimeBin>(10 * kBinsPerDay + k),
               150'000'000u, 0, WifiState::Off, kNoAp);
  }
  test::build_index(ds);
  EXPECT_EQ(detect_updates(ds, detect_2015()).num_updated, 0);
}

TEST(UpdateDetect, PrecisionAndRecallOnCampaign) {
  const Dataset& ds = campaign(Year::Y2015);
  const UpdateDetection det = detect_updates(ds, detect_2015());
  int tp = 0, fp = 0, fn = 0;
  for (std::size_t i = 0; i < ds.devices.size(); ++i) {
    const bool truth = ds.truth.devices[i].update_bin >= 0;
    const bool found = det.update_bin[i] >= 0;
    tp += truth && found;
    fp += !truth && found;
    fn += truth && !found;
  }
  ASSERT_GT(tp, 10);
  EXPECT_GT(static_cast<double>(tp) / (tp + fp), 0.85) << "precision";
  EXPECT_GT(static_cast<double>(tp) / (tp + fn), 0.90) << "recall";
}

TEST(UpdateDetect, DetectedBinNearTruthBin) {
  // Detection may occasionally latch onto an organic burst of a device
  // that also truly updated, but the vast majority of detections land
  // within two hours of the true update start.
  const Dataset& ds = campaign(Year::Y2015);
  const UpdateDetection det = detect_updates(ds, detect_2015());
  int matched = 0, close = 0;
  for (std::size_t i = 0; i < ds.devices.size(); ++i) {
    const std::int32_t truth = ds.truth.devices[i].update_bin;
    const std::int32_t found = det.update_bin[i];
    if (truth < 0 || found < 0) continue;
    ++matched;
    close += std::abs(found - truth) <= 12;
  }
  ASSERT_GT(matched, 10);
  EXPECT_GT(static_cast<double>(close) / matched, 0.85);
}

TEST(UpdateTiming, ReproducesFlashCrowdShape) {
  const Dataset& ds = campaign(Year::Y2015);
  const UpdateDetection det = detect_updates(ds, detect_2015());
  const UpdateTiming t =
      analyze_update_timing(ds, det, campaign_classification(Year::Y2015));

  // §3.7: 58% of iOS devices updated within the window; we accept a band.
  EXPECT_GT(t.updated_share_all, 0.40);
  EXPECT_LT(t.updated_share_all, 0.75);
  // Only a small minority of no-home users update (14% in the paper).
  EXPECT_LT(t.updated_share_no_home, 0.30);
  EXPECT_LT(t.updated_share_no_home, t.updated_share_all);
  // The first day carries a burst (10% of all iOS devices).
  EXPECT_GT(t.first_day_share, 0.02);
  // Users without home WiFi update later (3.5-day median gap). With the
  // small test-fixture panel only a handful of no-home updaters exist,
  // so require the gap only when the sample is meaningful.
  if (t.delay_days_no_home.size() >= 5) {
    EXPECT_GT(t.median_delay_no_home, t.median_delay_home);
  }
  // Delays are sorted series.
  for (std::size_t i = 1; i < t.delay_days_all.size(); ++i) {
    ASSERT_GE(t.delay_days_all[i], t.delay_days_all[i - 1]);
  }
}

TEST(UpdateTiming, EmptyDetectionYieldsEmptyTiming) {
  const Dataset& ds = campaign(Year::Y2013);
  UpdateDetection det;
  det.update_bin.assign(ds.devices.size(), -1);
  const UpdateTiming t =
      analyze_update_timing(ds, det, campaign_classification(Year::Y2013));
  EXPECT_TRUE(t.delay_days_all.empty());
  EXPECT_DOUBLE_EQ(t.updated_share_all, 0.0);
}

}  // namespace
}  // namespace tokyonet::analysis
