// Tests for the application breakdown (Tables 6/7), the soft-cap
// analysis (Fig 19), the §4.1 offload estimates, the macro model (Fig 1)
// and the survey tabulators (Tables 2/8/9).
#include <gtest/gtest.h>

#include "analysis/apps.h"
#include "analysis/cap.h"
#include "analysis/macro.h"
#include "analysis/offload.h"
#include "analysis/surveytab.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::campaign;
using test::campaign_source;
using test::campaign_classification;

const AppBreakdown& breakdown(Year y) {
  static const AppBreakdown* cache[kNumYears] = {};
  const int i = static_cast<int>(y);
  if (cache[i] == nullptr) {
    const Dataset& ds = campaign(y);
    const query::InMemorySource src(ds);
    cache[i] = new AppBreakdown(app_breakdown(
        src, campaign_classification(y), infer_home_cells(ds)));
  }
  return *cache[i];
}

TEST(Apps, SharesNormalizedPerContext) {
  const AppBreakdown& b = breakdown(Year::Y2015);
  for (int ctx = 0; ctx < kNumAppContexts; ++ctx) {
    double rx = 0, tx = 0;
    for (int c = 0; c < kNumAppCategories; ++c) {
      rx += b.rx_share[static_cast<std::size_t>(ctx)][static_cast<std::size_t>(c)];
      tx += b.tx_share[static_cast<std::size_t>(ctx)][static_cast<std::size_t>(c)];
    }
    EXPECT_NEAR(rx, 1.0, 1e-9);
    EXPECT_NEAR(tx, 1.0, 1e-9);
  }
}

TEST(Apps, TopRankingSortedAndCapped) {
  const AppBreakdown& b = breakdown(Year::Y2015);
  const auto top = b.top(AppContext::WifiHome, /*rx=*/true, 5);
  ASSERT_LE(top.size(), 5u);
  ASSERT_GE(top.size(), 3u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].share, top[i].share);
  }
}

TEST(Apps, BrowserLeadsCellularEveryYear) {
  // Table 6: browsing tops both cellular contexts in all years.
  for (Year y : kAllYears) {
    for (AppContext ctx : {AppContext::CellHome, AppContext::CellOther}) {
      const auto top = breakdown(y).top(ctx, true, 1);
      ASSERT_FALSE(top.empty());
      EXPECT_EQ(top[0].category, AppCategory::Browser)
          << to_string(ctx) << " " << to_string(y);
    }
  }
}

TEST(Apps, VideoTakesOverHomeWifiFrom2014) {
  // Table 6: WiFi-home video 4.0% (2013) -> 30.4% (2014) -> 25.4% (2015).
  const double v13 = breakdown(Year::Y2013)
      .rx_share[static_cast<int>(AppContext::WifiHome)]
               [static_cast<int>(AppCategory::Video)];
  const double v14 = breakdown(Year::Y2014)
      .rx_share[static_cast<int>(AppContext::WifiHome)]
               [static_cast<int>(AppCategory::Video)];
  EXPECT_LT(v13, 0.10);
  EXPECT_GT(v14, 0.20);
  const auto top14 = breakdown(Year::Y2014).top(AppContext::WifiHome, true, 1);
  EXPECT_EQ(top14[0].category, AppCategory::Video);
}

TEST(Apps, PublicWifiShiftsFromBrowsingToVideoAndDownloads) {
  // Table 6 WiFi-public: browser 44% (2013); video+download surge later.
  const AppBreakdown& b13 = breakdown(Year::Y2013);
  const AppBreakdown& b15 = breakdown(Year::Y2015);
  const auto pub = static_cast<std::size_t>(AppContext::WifiPublic);
  EXPECT_GT(b13.rx_share[pub][static_cast<int>(AppCategory::Browser)], 0.30);
  const double heavy15 =
      b15.rx_share[pub][static_cast<int>(AppCategory::Video)] +
      b15.rx_share[pub][static_cast<int>(AppCategory::Download)];
  const double heavy13 =
      b13.rx_share[pub][static_cast<int>(AppCategory::Video)] +
      b13.rx_share[pub][static_cast<int>(AppCategory::Download)];
  EXPECT_GT(heavy15, heavy13 + 0.10);
}

TEST(Apps, ProductivityUploadHeavyOnHomeWifi) {
  // Table 7: online-storage sync ranks productivity high in WiFi-home TX.
  const AppBreakdown& b = breakdown(Year::Y2015);
  const double tx = b.tx_share[static_cast<int>(AppContext::WifiHome)]
                              [static_cast<int>(AppCategory::Productivity)];
  const double rx = b.rx_share[static_cast<int>(AppContext::WifiHome)]
                              [static_cast<int>(AppCategory::Productivity)];
  EXPECT_GT(tx, 0.06);
  EXPECT_GT(tx, rx);
}

TEST(Apps, LightUserFilterDropsVideoShare) {
  // §3.6: for light users, video's download contribution shrinks.
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const auto days = user_days(ds);
  const UserClassifier classes(days);
  AppBreakdownOptions opt;
  opt.days = &days;
  opt.classes = &classes;
  opt.light_users_only = true;
  const AppBreakdown light = app_breakdown(
      src, campaign_classification(Year::Y2015), infer_home_cells(ds), opt);
  const auto home = static_cast<std::size_t>(AppContext::WifiHome);
  EXPECT_LT(light.rx_share[home][static_cast<int>(AppCategory::Video)],
            breakdown(Year::Y2015).rx_share[home]
                [static_cast<int>(AppCategory::Video)] + 0.05);
}

TEST(Cap, SharesAndGapBands) {
  const Dataset& ds14 = campaign(Year::Y2014);
  const Dataset& ds15 = campaign(Year::Y2015);
  const CapAnalysis c14 = analyze_cap(ds14.devices.size(), user_days(ds14));
  const CapAnalysis c15 = analyze_cap(ds15.devices.size(), user_days(ds15));
  // §3.8: potentially capped users are a small, growing share.
  EXPECT_LT(c14.capped_user_share, 0.10);
  EXPECT_GT(c15.capped_user_share, 0.0);
}

TEST(Cap, GapShrinksAfterRelaxation) {
  // Fig 19: the capped-vs-others gap shrinks after the 2015 relaxation.
  // The shared kTestScale fixture yields only ~6-10 capped user-days, so
  // gap_at_half (a CDF difference at the 0.5 quantile) is noise there;
  // the directional claim needs a larger campaign (~30/~100 capped
  // user-days at scale 0.6, where the gap is 0.32 vs 0.15).
  constexpr double kCapScale = 0.6;
  const Dataset big14 = sim::simulate_year(Year::Y2014, kCapScale);
  const Dataset big15 = sim::simulate_year(Year::Y2015, kCapScale);
  const CapAnalysis c14 = analyze_cap(big14.devices.size(), user_days(big14));
  const CapAnalysis c15 = analyze_cap(big15.devices.size(), user_days(big15));
  EXPECT_GT(c14.gap_at_half, c15.gap_at_half);
  EXPECT_GT(c14.gap_at_half, 0.05);
}

TEST(Cap, OthersBaselineMatchesPaper) {
  // Fig 19: ~30% of non-capped user-days fall below half their 3-day
  // mean in both years.
  for (Year y : {Year::Y2014, Year::Y2015}) {
    const Dataset& ds = campaign(y);
    const CapAnalysis c = analyze_cap(ds.devices.size(), user_days(ds));
    EXPECT_NEAR(c.others_below_half, 0.32, 0.10);
  }
}

TEST(Cap, DetectionAgreesWithSimulatorTruth) {
  const Dataset& ds = campaign(Year::Y2014);
  const CapAnalysis c = analyze_cap(ds.devices.size(), user_days(ds));
  // Every truly capped device should be flagged by the analysis: the
  // analysis sees the same traffic the enforcement acted on.
  int truth_users = 0;
  for (const DeviceTruth& t : ds.truth.devices) {
    bool any = false;
    for (std::uint8_t v : t.capped_day) any |= v != 0;
    truth_users += any;
  }
  EXPECT_NEAR(c.capped_user_share * static_cast<double>(ds.devices.size()),
              truth_users, truth_users * 0.35 + 2);
}

TEST(Offload, ImpactEstimatesMatchPaperBands) {
  // §4.1: WiFi:cell ~1.4:1; ~28% of RBB volume; ~12% of a median
  // residential customer's daily download.
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const OffloadImpact o =
      offload_impact(src, user_days(ds), campaign_classification(Year::Y2015));
  EXPECT_GT(o.wifi_to_cell_ratio, 1.0);
  EXPECT_LT(o.wifi_to_cell_ratio, 2.5);
  EXPECT_NEAR(o.est_rbb_share, 0.28, 0.15);
  EXPECT_NEAR(o.est_home_share, 0.12, 0.08);
}

TEST(Macro, Fig1Anchors) {
  // Cellular reaches ~20% of RBB at the end of 2014 (§1).
  EXPECT_NEAR(cellular_download_gbps(2014.9) / rbb_download_gbps(2014.9),
              0.20, 0.04);
  // RBB passes ~3.5 Tbps around 2015 and started near ~0.6 Tbps in 2006.
  EXPECT_NEAR(rbb_download_gbps(2015.0), 3500, 500);
  EXPECT_NEAR(rbb_download_gbps(2006.0), 600, 300);
}

TEST(Macro, SeriesMonotoneGrowth) {
  const auto series = macro_growth_series(4);
  ASSERT_GT(series.size(), 30u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].rbb_gbps, series[i - 1].rbb_gbps);
    EXPECT_GT(series[i].cell_gbps, series[i - 1].cell_gbps);
    EXPECT_LT(series[i].cell_gbps, series[i].rbb_gbps);
  }
}

TEST(Survey, DemographicsSumTo100) {
  for (Year y : kAllYears) {
    const Demographics d = demographics(campaign_source(y));
    double sum = 0;
    for (double p : d.percent) sum += p;
    EXPECT_NEAR(sum, 100.0, 1e-9);
    EXPECT_GT(d.respondents, 100);
  }
}

TEST(Survey, OfficeWorkersLargestGroup) {
  // Table 2: office workers are the top occupation (20-24%).
  const Demographics d = demographics(campaign_source(Year::Y2015));
  const double office =
      d.percent[static_cast<std::size_t>(Occupation::OfficeWorker)];
  for (int o = 0; o < kNumOccupations; ++o) {
    EXPECT_LE(d.percent[static_cast<std::size_t>(o)], office + 1e-9);
  }
  EXPECT_NEAR(office, 23.6, 5.0);
}

TEST(Survey, ApUsageRowsSumTo100) {
  const SurveyApUsage u = survey_ap_usage(campaign_source(Year::Y2015));
  for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
    EXPECT_NEAR(u.yes[static_cast<std::size_t>(loc)] +
                    u.no[static_cast<std::size_t>(loc)] +
                    u.not_answered[static_cast<std::size_t>(loc)],
                100.0, 1e-9);
  }
}

TEST(Survey, Table8Shape) {
  // Home yes ~70-78%, office yes low (~26-32%), public ~45-54%, and
  // home/public grow over the years while office stays flat.
  const SurveyApUsage u13 = survey_ap_usage(campaign_source(Year::Y2013));
  const SurveyApUsage u15 = survey_ap_usage(campaign_source(Year::Y2015));
  EXPECT_NEAR(u15.yes[0], 78.2, 12.0);
  EXPECT_LT(u15.yes[1], 45.0);
  EXPECT_GT(u15.yes[0], u13.yes[0]);
  EXPECT_GT(u15.yes[2], u13.yes[2]);
}

TEST(Survey, PublicConnectivityOverReported) {
  // §4.2: users report more public connectivity than the traffic shows.
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const SurveyApUsage u = survey_ap_usage(src);
  double config = 0;
  for (const DeviceTruth& t : ds.truth.devices) config += t.uses_public_wifi;
  const double truth_pct = config / static_cast<double>(ds.devices.size()) * 100;
  EXPECT_GT(u.yes[2], truth_pct);
}

TEST(Survey, ReasonsOnlyWherePeopleSaidNo) {
  const SurveyReasons r = survey_reasons(campaign_source(Year::Y2015));
  for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
    EXPECT_GT(r.respondents[static_cast<std::size_t>(loc)], 0);
    for (double p : r.percent[static_cast<std::size_t>(loc)]) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 100.0);
    }
  }
  // Table 9: "no available APs" is the top office reason (~52%).
  const double office_no_aps =
      r.percent[1][static_cast<std::size_t>(SurveyReason::NoAvailableAps)];
  EXPECT_GT(office_no_aps, 30.0);
}

TEST(Survey, SecurityConcernGrowsForPublicWifi) {
  // Table 9: public-WiFi security worry 15% (2014) -> 35% (2015).
  const SurveyReasons r14 = survey_reasons(campaign_source(Year::Y2014));
  const SurveyReasons r15 = survey_reasons(campaign_source(Year::Y2015));
  const auto sec = static_cast<std::size_t>(SurveyReason::SecurityIssue);
  EXPECT_GT(r15.percent[2][sec], r14.percent[2][sec]);
}

}  // namespace
}  // namespace tokyonet::analysis
