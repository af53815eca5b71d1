// Tests for the additional paper-claim analyses: channel interference
// (§3.4.5), per-carrier iOS connectivity (§3.3.4) and the
// weekday/weekend traffic split (§3.1).
#include <gtest/gtest.h>

#include "analysis/aggregate.h"
#include "analysis/quality.h"
#include "analysis/wifistate.h"
#include "geo/region.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::campaign;
using test::campaign_source;
using test::campaign_classification;

TEST(Interference, PublicBetterCoordinatedThanHome) {
  // §3.4.5: public providers plan around 1/6/11; 2013 homes pile on Ch1.
  const geo::TokyoRegion region;
  const InterferenceAnalysis i13 = channel_interference(
      campaign(Year::Y2013), campaign_classification(Year::Y2013),
      region.grid().num_cells());
  ASSERT_GT(i13.home_pairs, 50);
  ASSERT_GT(i13.public_pairs, 50);
  EXPECT_GT(i13.home_conflict_share, i13.public_conflict_share);
}

TEST(Interference, HomeCoordinationImprovesOverYears) {
  const geo::TokyoRegion region;
  const InterferenceAnalysis i13 = channel_interference(
      campaign(Year::Y2013), campaign_classification(Year::Y2013),
      region.grid().num_cells());
  const InterferenceAnalysis i15 = channel_interference(
      campaign(Year::Y2015), campaign_classification(Year::Y2015),
      region.grid().num_cells());
  EXPECT_GT(i13.home_conflict_share, i15.home_conflict_share);
}

TEST(Interference, SharesBounded) {
  const geo::TokyoRegion region;
  for (Year y : kAllYears) {
    const InterferenceAnalysis i = channel_interference(
        campaign(y), campaign_classification(y), region.grid().num_cells());
    for (double v : {i.home_conflict_share, i.public_conflict_share}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Interference, WiderGapCountsMoreConflicts) {
  const geo::TokyoRegion region;
  const Dataset& ds = campaign(Year::Y2015);
  const auto& cls = campaign_classification(Year::Y2015);
  const InterferenceAnalysis narrow =
      channel_interference(ds, cls, region.grid().num_cells(), 2);
  const InterferenceAnalysis wide =
      channel_interference(ds, cls, region.grid().num_cells(), 13);
  EXPECT_LE(narrow.home_conflict_share, wide.home_conflict_share);
  EXPECT_NEAR(wide.home_conflict_share, 1.0, 1e-9);  // all 2.4 GHz overlap
}

TEST(Carriers, IosWifiRatiosSimilarAcrossCarriers) {
  // §3.3.4: "no difference in the WiFi-user ratios among three cellular
  // carriers providing iPhones".
  for (Year y : kAllYears) {
    const auto by_carrier = ios_wifi_user_by_carrier(campaign_source(y));
    double lo = 1.0, hi = 0.0;
    for (double v : by_carrier) {
      EXPECT_GT(v, 0.0);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // The model is carrier-independent by construction; at the small
    // fixture scale (~30 iOS users per carrier) sampling noise alone
    // spreads the per-carrier means by up to ~0.22.
    EXPECT_LT(hi - lo, 0.25) << "carriers diverge in " << to_string(y);
  }
}

TEST(WeekSplit, CellularWeekdayHeavyWifiWeekendHeavy) {
  // §3.1: cellular traffic is smaller on weekends, WiFi is the opposite.
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const WeekSplit cell = weekday_weekend_split(src, Stream::CellRx);
  const WeekSplit wifi = weekday_weekend_split(src, Stream::WifiRx);
  EXPECT_GT(cell.weekday_mbps, cell.weekend_mbps);
  EXPECT_GT(wifi.weekend_mbps, wifi.weekday_mbps);
}

TEST(WeekSplit, RatesPositive) {
  const Dataset& ds = campaign(Year::Y2013);
  const query::InMemorySource src(ds);
  for (Stream s : {Stream::CellRx, Stream::CellTx, Stream::WifiRx,
                   Stream::WifiTx}) {
    const WeekSplit split = weekday_weekend_split(src, s);
    EXPECT_GT(split.weekday_mbps, 0.0);
    EXPECT_GT(split.weekend_mbps, 0.0);
  }
}

}  // namespace
}  // namespace tokyonet::analysis
