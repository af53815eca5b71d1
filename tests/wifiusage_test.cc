// Tests for WiFi usage patterns: APs per day (Fig 12), HPO breakdown
// (Table 5), association durations (Fig 13), band fractions (Fig 14).
#include <gtest/gtest.h>

#include "analysis/wifiusage.h"
#include "stats/descriptive.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::campaign;
using test::campaign_source;
using test::campaign_classification;

TEST(ApsPerDay, SharesNormalizedPerClass) {
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const auto days = user_days(ds);
  const ApsPerDay a = aps_per_day(src, days, UserClassifier(days));
  for (int c = 0; c < 3; ++c) {
    double sum = 0;
    for (int k = 0; k < 4; ++k) {
      sum += a.share[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ApsPerDay, SingleApShareDeclinesOverYears) {
  // Fig 12: the one-AP-per-day share falls ~10 points from 2013 to 2015.
  double prev = 1.0;
  for (Year y : kAllYears) {
    const Dataset& ds = campaign(y);
    const query::InMemorySource src(ds);
    const auto days = user_days(ds);
    const ApsPerDay a = aps_per_day(src, days, UserClassifier(days));
    EXPECT_LE(a.share[0][0], prev + 0.02);
    prev = a.share[0][0];
  }
  const Dataset& ds13 = campaign(Year::Y2013);
  const query::InMemorySource src13(ds13);
  const auto days13 = user_days(ds13);
  const double one13 =
      aps_per_day(src13, days13, UserClassifier(days13)).share[0][0];
  EXPECT_GT(one13 - prev, 0.03);
}

TEST(ApsPerDay, HeavyAndLightSimilarMobility) {
  // §3.4.2: traffic volume does not correlate with mobility pattern.
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const auto days = user_days(ds);
  const ApsPerDay a = aps_per_day(src, days, UserClassifier(days));
  EXPECT_NEAR(a.share[1][0], a.share[2][0], 0.15);
}

TEST(Hpo, SharesSumToOne) {
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const HpoBreakdown h =
      hpo_breakdown(src, campaign_classification(Year::Y2015));
  double sum = h.four_plus;
  for (const auto& [key, share] : h.share) sum += share;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Hpo, SingleHomeDominates) {
  // Table 5: HPO=100 is the top pattern every year (46-55%).
  for (Year y : kAllYears) {
    const Dataset& ds = campaign(y);
    const query::InMemorySource src(ds);
    const HpoBreakdown h = hpo_breakdown(src, campaign_classification(y));
    const std::array<int, 3> home_only{1, 0, 0};
    ASSERT_TRUE(h.share.count(home_only));
    const double home_share = h.share.at(home_only);
    EXPECT_GT(home_share, 0.30);
    for (const auto& [key, share] : h.share) {
      EXPECT_LE(share, home_share + 1e-12);
    }
  }
}

TEST(Hpo, KeysAreSmallCounts) {
  const Dataset& ds = campaign(Year::Y2014);
  const query::InMemorySource src(ds);
  const HpoBreakdown h =
      hpo_breakdown(src, campaign_classification(Year::Y2014));
  for (const auto& [key, share] : h.share) {
    EXPECT_GE(key[0], 0);
    EXPECT_LE(key[0] + key[1] + key[2], 3);  // 4+ folded separately
    EXPECT_GT(share, 0.0);
  }
}

TEST(Durations, PaperOrderingHomeOfficePublic) {
  // Fig 13: 90th percentiles ~12h home, ~8h office, ~1h public.
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const AssociationDurations d =
      association_durations(src, campaign_classification(Year::Y2015));
  ASSERT_GT(d.home_hours.size(), 100u);
  ASSERT_GT(d.public_hours.size(), 50u);
  const double p90_home = stats::percentile(d.home_hours, 90);
  const double p90_public = stats::percentile(d.public_hours, 90);
  EXPECT_GT(p90_home, 5.0);
  EXPECT_LT(p90_home, 20.0);
  EXPECT_LT(p90_public, 3.0);
  EXPECT_GT(p90_home, p90_public);
  if (d.office_hours.size() > 20) {
    const double p90_office = stats::percentile(d.office_hours, 90);
    EXPECT_LT(p90_office, p90_home);
    EXPECT_GT(p90_office, p90_public);
  }
}

TEST(Durations, AllPositiveAndBoundedByCampaign) {
  const Dataset& ds = campaign(Year::Y2013);
  const query::InMemorySource src(ds);
  const AssociationDurations d =
      association_durations(src, campaign_classification(Year::Y2013));
  const double max_hours = ds.num_days() * 24.0;
  for (const auto* v : {&d.home_hours, &d.public_hours, &d.office_hours}) {
    for (double h : *v) {
      ASSERT_GT(h, 0.0);
      ASSERT_LE(h, max_hours);
    }
  }
}

TEST(Durations, StableAcrossYears) {
  // §3.4.2: duration distributions do not change across the years.
  const auto p90 = [](Year y) {
    const Dataset& ds = campaign(y);
    const query::InMemorySource src(ds);
    const AssociationDurations d =
        association_durations(src, campaign_classification(y));
    return stats::percentile(d.home_hours, 90);
  };
  EXPECT_NEAR(p90(Year::Y2013), p90(Year::Y2015), 4.0);
}

TEST(BandFractions, PublicLeadsAndGrows) {
  // Fig 14: public 5 GHz share grows to >50% by 2015 while home/office
  // stay under 20%.
  const BandFractions f13 =
      band_fractions(campaign_source(Year::Y2013),
                     campaign_classification(Year::Y2013));
  const BandFractions f15 =
      band_fractions(campaign_source(Year::Y2015),
                     campaign_classification(Year::Y2015));
  EXPECT_GT(f15.publik, 0.45);
  EXPECT_GT(f15.publik, f13.publik);
  EXPECT_LT(f15.home, 0.25);
  EXPECT_LT(f13.home, 0.15);
  EXPECT_GT(f15.publik, f15.home);
}

TEST(BandFractions, Bounded) {
  for (Year y : kAllYears) {
    const BandFractions f =
        band_fractions(campaign_source(y), campaign_classification(y));
    for (double v : {f.home, f.office, f.publik}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

}  // namespace
}  // namespace tokyonet::analysis
