#include "analysis/classify.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_ap;
using test::add_sample;
using test::campaign;
using test::campaign_classification;
using test::empty_dataset;

/// Builds a 3-day dataset where device 0 camps on AP "home" overnight.
Dataset overnight_dataset(double presence, std::string essid = "aterm-AB12-g") {
  Dataset ds = empty_dataset(1, 3);
  const ApId home = add_ap(ds, std::move(essid));
  const int night_bins = 8 * kBinsPerHour;  // 22:00-06:00
  for (int day = 0; day < 2; ++day) {
    int placed = 0;
    for (int k = 0; k < night_bins; ++k) {
      const int hour_bin = 22 * kBinsPerHour + k;  // continues past midnight
      const auto bin = static_cast<TimeBin>(day * kBinsPerDay + hour_bin);
      if (bin >= ds.calendar.num_bins()) break;
      const bool assoc = placed < presence * night_bins;
      add_sample(ds, 0, bin, 0, assoc ? 1000u : 0u,
                 assoc ? WifiState::Associated : WifiState::OnUnassociated,
                 assoc ? home : kNoAp);
      ++placed;
    }
  }
  test::build_index(ds);
  return ds;
}

TEST(Classify, OvernightCamperGetsHomeAp) {
  const Dataset ds = overnight_dataset(1.0);
  const ApClassification cls = classify_aps(ds);
  EXPECT_EQ(cls.home_ap_of_device[0], ApId{0});
  EXPECT_EQ(cls.class_of(ApId{0}), ApClass::Home);
  EXPECT_DOUBLE_EQ(cls.home_ap_device_share(), 1.0);
}

TEST(Classify, BelowPresenceThresholdNotHome) {
  const Dataset ds = overnight_dataset(0.5);  // below the 70% rule
  const ApClassification cls = classify_aps(ds);
  EXPECT_EQ(cls.home_ap_of_device[0], kNoAp);
  EXPECT_EQ(cls.class_of(ApId{0}), ApClass::Other);
}

class HomeThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(HomeThresholdSweep, ThresholdGatesClassification) {
  const double presence = 0.75;
  const Dataset ds = overnight_dataset(presence);
  ClassifyOptions opt;
  opt.home_presence_threshold = GetParam();
  const ApClassification cls = classify_aps(ds, opt);
  if (GetParam() <= presence) {
    EXPECT_EQ(cls.home_ap_of_device[0], ApId{0});
  } else {
    EXPECT_EQ(cls.home_ap_of_device[0], kNoAp);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HomeThresholdSweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

TEST(Classify, FonBoxCampedOnOvernightIsHome) {
  // §3.4.1: FON APs with a public ESSID used around the clock at home
  // are classified home, not public.
  const Dataset ds = overnight_dataset(1.0, "FON_FREE_INTERNET");
  const ApClassification cls = classify_aps(ds);
  EXPECT_EQ(cls.class_of(ApId{0}), ApClass::Home);
}

TEST(Classify, ProviderEssidIsPublic) {
  Dataset ds = empty_dataset(1, 2);
  const ApId ap = add_ap(ds, "0000docomo");
  // Brief daytime association only.
  for (int k = 0; k < 3; ++k) {
    add_sample(ds, 0, static_cast<TimeBin>(12 * kBinsPerHour + k), 0, 100,
               WifiState::Associated, ap);
  }
  test::build_index(ds);
  const ApClassification cls = classify_aps(ds);
  EXPECT_EQ(cls.class_of(ap), ApClass::Public);
}

TEST(Classify, NeverAssociatedApsExcludedFromCounts) {
  Dataset ds = empty_dataset(1, 2);
  (void)add_ap(ds, "0000docomo");
  (void)add_ap(ds, "corp-ap-22");
  test::build_index(ds);
  const ApClassification cls = classify_aps(ds);
  const auto counts = cls.counts();
  EXPECT_EQ(counts.total, 0);
}

TEST(Classify, WeekdayMiddayApIsOffice) {
  Dataset ds = empty_dataset(1, 7);
  const ApId ap = add_ap(ds, "corp-ap-01");
  // Day 2 of the 2015-02-28 calendar is a Monday.
  for (int day = 2; day < 7; ++day) {
    for (int hb = 11 * kBinsPerHour; hb < 17 * kBinsPerHour; ++hb) {
      add_sample(ds, 0, static_cast<TimeBin>(day * kBinsPerDay + hb), 0, 100,
                 WifiState::Associated, ap);
    }
  }
  test::build_index(ds);
  const ApClassification cls = classify_aps(ds);
  EXPECT_EQ(cls.class_of(ap), ApClass::Other);
  EXPECT_TRUE(cls.is_office[value(ap)]);
  EXPECT_EQ(cls.counts().office, 1);
}

TEST(Classify, WeekendMiddayApIsNotOffice) {
  Dataset ds = empty_dataset(1, 2);  // days 0/1 are Sat/Sun
  const ApId ap = add_ap(ds, "cafe-wifi-99");
  for (int day = 0; day < 2; ++day) {
    for (int hb = 11 * kBinsPerHour; hb < 17 * kBinsPerHour; ++hb) {
      add_sample(ds, 0, static_cast<TimeBin>(day * kBinsPerDay + hb), 0, 100,
                 WifiState::Associated, ap);
    }
  }
  test::build_index(ds);
  const ApClassification cls = classify_aps(ds);
  EXPECT_FALSE(cls.is_office[value(ap)]);
}

TEST(Classify, ApSeenAcrossManyCellsIsMobile) {
  Dataset ds = empty_dataset(1, 2);
  const ApId ap = add_ap(ds, "PocketWiFi-AB12CD");
  for (int k = 0; k < 6; ++k) {
    Sample& s = add_sample(ds, 0, static_cast<TimeBin>(8 * kBinsPerHour + k),
                           0, 100, WifiState::Associated, ap);
    s.geo_cell = static_cast<GeoCell>(100 + k);  // moving
  }
  test::build_index(ds);
  const ApClassification cls = classify_aps(ds);
  EXPECT_TRUE(cls.is_mobile[value(ap)]);
  EXPECT_FALSE(cls.is_office[value(ap)]);
}

TEST(Classify, IdempotentAcrossCalls) {
  const Dataset& ds = campaign(Year::Y2014);
  const ApClassification a = classify_aps(ds);
  const ApClassification b = classify_aps(ds);
  EXPECT_EQ(a.ap_class, b.ap_class);
  EXPECT_EQ(a.home_ap_of_device, b.home_ap_of_device);
}

TEST(Classify, InferenceMatchesGroundTruthOnCampaign) {
  const Dataset& ds = campaign(Year::Y2015);
  const ApClassification& cls = campaign_classification(Year::Y2015);

  // Home inference: precision against simulator truth.
  int inferred = 0, correct = 0, owners = 0;
  for (std::size_t i = 0; i < ds.devices.size(); ++i) {
    const DeviceTruth& t = ds.truth.devices[i];
    owners += t.has_home_ap;
    const ApId inferred_ap = cls.home_ap_of_device[i];
    if (inferred_ap == kNoAp) continue;
    ++inferred;
    correct += t.has_home_ap && inferred_ap == t.home_ap;
  }
  ASSERT_GT(inferred, 0);
  EXPECT_GT(static_cast<double>(correct) / inferred, 0.95);  // precision
  EXPECT_GT(static_cast<double>(inferred) / owners, 0.85);   // recall
}

TEST(Classify, PublicClassMatchesPlacementTruth) {
  const Dataset& ds = campaign(Year::Y2015);
  const ApClassification& cls = campaign_classification(Year::Y2015);
  int pub_inferred = 0, pub_correct = 0;
  for (std::size_t i = 0; i < ds.aps.size(); ++i) {
    if (!cls.associated[i] || cls.ap_class[i] != ApClass::Public) continue;
    ++pub_inferred;
    pub_correct += ds.truth.aps[i].placement == ApPlacement::Public;
  }
  ASSERT_GT(pub_inferred, 20);
  EXPECT_GT(static_cast<double>(pub_correct) / pub_inferred, 0.95);
}

TEST(Classify, HomeShareTracksOwnership) {
  // The §3.4.1 headline: inferred home-AP share approximates true
  // ownership (66% / 73% / 79%).
  for (Year y : kAllYears) {
    const Dataset& ds = campaign(y);
    const ApClassification& cls = campaign_classification(y);
    double owners = 0;
    for (const DeviceTruth& t : ds.truth.devices) owners += t.has_home_ap;
    const double ownership = owners / static_cast<double>(ds.devices.size());
    EXPECT_NEAR(cls.home_ap_device_share(), ownership, 0.08);
  }
}

TEST(Classify, EmptyDatasetYieldsEmptyClassification) {
  Dataset ds = empty_dataset(0, 1);
  test::build_index(ds);
  const ApClassification cls = classify_aps(ds);
  EXPECT_EQ(cls.counts().total, 0);
  EXPECT_DOUBLE_EQ(cls.home_ap_device_share(), 0.0);
}

}  // namespace
}  // namespace tokyonet::analysis
