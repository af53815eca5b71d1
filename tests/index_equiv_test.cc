// Equivalence tests for the shared DatasetIndex kernels and the
// memoized AnalysisContext.
//
// Contract under test: every kernel that scans the index's SoA columns
// is *byte-identical* to its serial AoS reference (tests/
// serial_reference.h) at any thread count. The kernel runs at thread
// counts 1 and 4 and must reproduce the reference exactly (EXPECT_EQ on
// doubles, no tolerance).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/apps.h"
#include "analysis/availability.h"
#include "analysis/battery.h"
#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/context.h"
#include "analysis/quality.h"
#include "analysis/update.h"
#include "analysis/volumes.h"
#include "analysis/wifistate.h"
#include "core/dataset_index.h"
#include "core/parallel.h"
#include "geo/region.h"
#include "serial_reference.h"
#include "testutil.h"

namespace tokyonet::analysis {
namespace {

using test::add_sample;
using test::campaign;
using test::campaign_classification;
using test::empty_dataset;

/// Restores the environment-derived thread count on scope exit.
struct ThreadCountGuard {
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

constexpr int kThreadCounts[] = {1, 4};

void expect_profile_eq(const WeeklyProfile& got, const WeeklyProfile& want) {
  EXPECT_EQ(got.num_series(), want.num_series());
  EXPECT_EQ(got.den_series(), want.den_series());
}

/// Runs the serial `oracle` on the campaign, then `kernel` over the
/// campaign's query::DataSource at each thread count, handing every
/// result to `check(got, ref)`.
template <typename Kernel, typename Oracle, typename Check>
void expect_matches_serial(Year y, Kernel&& kernel, Oracle&& oracle,
                           Check&& check) {
  ThreadCountGuard guard;
  const auto ref = oracle(campaign(y));
  for (int threads : kThreadCounts) {
    core::set_thread_count(threads);
    check(kernel(test::campaign_source(y)), ref);
  }
}

TEST(IndexEquivalence, AggregateSeries) {
  for (Year y : kAllYears) {
    for (Stream s : {Stream::CellRx, Stream::CellTx, Stream::WifiRx,
                     Stream::WifiTx}) {
      expect_matches_serial(
          y,
          [&](const query::DataSource& src) {
            return aggregate_series(src, s);
          },
          [&](const Dataset& ds) { return serial::aggregate_series(ds, s); },
          [](const HourlySeries& got, const HourlySeries& ref) {
            EXPECT_EQ(got.mbps, ref.mbps);
          });
    }
  }
}

TEST(IndexEquivalence, LocationSeries) {
  const LocationFilter filters[] = {
      {ApClass::Home, false}, {ApClass::Public, false}, {ApClass::Other, true}};
  for (Year y : kAllYears) {
    const ApClassification& cls = campaign_classification(y);
    for (const LocationFilter& f : filters) {
      for (bool rx : {true, false}) {
        expect_matches_serial(
            y,
            [&](const query::DataSource& src) {
              return location_series(src, cls, f, rx);
            },
            [&](const Dataset& ds) {
              return serial::location_series(ds, cls, f, rx);
            },
            [](const HourlySeries& got, const HourlySeries& ref) {
              EXPECT_EQ(got.mbps, ref.mbps);
            });
      }
    }
  }
}

TEST(IndexEquivalence, WifiLocationShares) {
  for (Year y : kAllYears) {
    expect_matches_serial(
        y,
        [&](const query::DataSource& src) {
          return wifi_location_shares(src, campaign_classification(y));
        },
        [&](const Dataset& ds) {
          return serial::wifi_location_shares(ds, campaign_classification(y));
        },
        [](const WifiLocationShares& got, const WifiLocationShares& ref) {
          EXPECT_EQ(got.home, ref.home);
          EXPECT_EQ(got.publik, ref.publik);
          EXPECT_EQ(got.office, ref.office);
          EXPECT_EQ(got.other, ref.other);
        });
  }
}

TEST(IndexEquivalence, RssiAnalysis) {
  for (Year y : kAllYears) {
    expect_matches_serial(
        y,
        [&](const query::DataSource& src) {
          return rssi_analysis(src, campaign_classification(y));
        },
        [&](const Dataset& ds) {
          return serial::rssi_analysis(ds, campaign_classification(y));
        },
        [](const RssiAnalysis& got, const RssiAnalysis& ref) {
          EXPECT_EQ(got.home_max_rssi, ref.home_max_rssi);
          EXPECT_EQ(got.public_max_rssi, ref.public_max_rssi);
          EXPECT_EQ(got.home_mean, ref.home_mean);
          EXPECT_EQ(got.public_mean, ref.public_mean);
          EXPECT_EQ(got.home_below_70_share, ref.home_below_70_share);
          EXPECT_EQ(got.public_below_70_share, ref.public_below_70_share);
        });
  }
}

TEST(IndexEquivalence, ChannelAnalysis) {
  for (Year y : kAllYears) {
    expect_matches_serial(
        y,
        [&](const query::DataSource& src) {
          return channel_analysis(src, campaign_classification(y));
        },
        [&](const Dataset& ds) {
          return serial::channel_analysis(ds, campaign_classification(y));
        },
        [](const ChannelAnalysis& got, const ChannelAnalysis& ref) {
          EXPECT_EQ(got.home_pmf, ref.home_pmf);
          EXPECT_EQ(got.public_pmf, ref.public_pmf);
        });
  }
}

TEST(IndexEquivalence, ChannelInterference) {
  // Rides the converted per-AP top-cell scan (ap_cells_24).
  const geo::TokyoRegion region;
  for (Year y : kAllYears) {
    expect_matches_serial(
        y,
        [&](const query::DataSource&) {
          // A Dataset-only kernel: it reads the resident campaign.
          return channel_interference(campaign(y), campaign_classification(y),
                                      region.grid().num_cells());
        },
        [&](const Dataset& ds) {
          return serial::channel_interference(ds, campaign_classification(y),
                                      region.grid().num_cells());
        },
        [](const InterferenceAnalysis& got, const InterferenceAnalysis& ref) {
          EXPECT_EQ(got.home_conflict_share, ref.home_conflict_share);
          EXPECT_EQ(got.public_conflict_share, ref.public_conflict_share);
          EXPECT_EQ(got.home_pairs, ref.home_pairs);
          EXPECT_EQ(got.public_pairs, ref.public_pairs);
        });
  }
}

TEST(IndexEquivalence, ApDensityMap) {
  const geo::TokyoRegion region;
  for (Year y : kAllYears) {
    for (ApClass which : {ApClass::Home, ApClass::Public}) {
      expect_matches_serial(
          y,
          [&](const query::DataSource& src) {
            return ap_density_map(src, campaign_classification(y), which,
                                  region.grid().num_cells());
          },
          [&](const Dataset& ds) {
            return serial::ap_density_map(ds, campaign_classification(y), which,
                                  region.grid().num_cells());
          },
          [](const ApDensityMap& got, const ApDensityMap& ref) {
            EXPECT_EQ(got.count_by_cell, ref.count_by_cell);
            EXPECT_EQ(got.cells_with_ap, ref.cells_with_ap);
            EXPECT_EQ(got.cells_with_100, ref.cells_with_100);
            EXPECT_EQ(got.max_count, ref.max_count);
          });
    }
  }
}

TEST(IndexEquivalence, WifiStates) {
  for (Year y : kAllYears) {
    expect_matches_serial(
        y,
        [](const query::DataSource& src) { return compute_wifi_states(src); },
        [](const Dataset& ds) { return serial::compute_wifi_states(ds); },
        [](const WifiStateProfiles& got, const WifiStateProfiles& ref) {
          expect_profile_eq(got.android_user, ref.android_user);
          expect_profile_eq(got.android_off, ref.android_off);
          expect_profile_eq(got.android_available, ref.android_available);
          expect_profile_eq(got.ios_user, ref.ios_user);
        });
  }
}

TEST(IndexEquivalence, IosWifiUserByCarrier) {
  for (Year y : kAllYears) {
    expect_matches_serial(
        y,
        [](const query::DataSource& src) {
          return ios_wifi_user_by_carrier(src);
        },
        [](const Dataset& ds) { return serial::ios_wifi_user_by_carrier(ds); },
        [](const std::array<double, kNumCarriers>& got,
           const std::array<double, kNumCarriers>& ref) {
          EXPECT_EQ(got, ref);
        });
  }
}

TEST(IndexEquivalence, VolumesOverview) {
  for (Year y : kAllYears) {
    expect_matches_serial(
        y, [](const query::DataSource& src) { return overview(src); },
        [](const Dataset& ds) { return serial::overview(ds); },
        [](const DatasetOverview& got, const DatasetOverview& ref) {
          EXPECT_EQ(got.n_android, ref.n_android);
          EXPECT_EQ(got.n_ios, ref.n_ios);
          EXPECT_EQ(got.n_total, ref.n_total);
          EXPECT_EQ(got.lte_traffic_share, ref.lte_traffic_share);
        });
  }
}

TEST(IndexEquivalence, AppBreakdown) {
  for (Year y : kAllYears) {
    const ApClassification& cls = campaign_classification(y);
    const std::vector<GeoCell> homes = infer_home_cells(campaign(y));
    expect_matches_serial(
        y,
        [&](const query::DataSource& src) {
          return app_breakdown(src, cls, homes);
        },
        [&](const Dataset& ds) {
          return serial::app_breakdown(ds, cls, homes);
        },
        [](const AppBreakdown& got, const AppBreakdown& ref) {
          EXPECT_EQ(got.rx_share, ref.rx_share);
          EXPECT_EQ(got.tx_share, ref.tx_share);
        });
  }
}

TEST(IndexEquivalence, AppBreakdownLightUsersOnly) {
  const Year y = Year::Y2015;
  const ApClassification& cls = campaign_classification(y);
  const Dataset& ds = campaign(y);
  const std::vector<GeoCell> homes = infer_home_cells(ds);
  const std::vector<UserDay> days = user_days(ds);
  const UserClassifier classes(days);
  AppBreakdownOptions opt;
  opt.light_users_only = true;
  opt.days = &days;
  opt.classes = &classes;
  expect_matches_serial(
      y,
      [&](const query::DataSource& src) {
        return app_breakdown(src, cls, homes, opt);
      },
      [&](const Dataset& d) {
        return serial::app_breakdown(d, cls, homes, opt);
      },
      [](const AppBreakdown& got, const AppBreakdown& ref) {
        EXPECT_EQ(got.rx_share, ref.rx_share);
        EXPECT_EQ(got.tx_share, ref.tx_share);
      });
}

TEST(IndexEquivalence, ScanAvailability) {
  for (Year y : kAllYears) {
    expect_matches_serial(
        y, [](const query::DataSource& src) { return scan_availability(src); },
        [](const Dataset& ds) { return serial::scan_availability(ds); },
        [](const ScanAvailability& got, const ScanAvailability& ref) {
          EXPECT_EQ(got.all_24, ref.all_24);
          EXPECT_EQ(got.strong_24, ref.strong_24);
          EXPECT_EQ(got.all_5, ref.all_5);
          EXPECT_EQ(got.strong_5, ref.strong_5);
        });
  }
}

TEST(IndexEquivalence, BatteryAnalysis) {
  for (Year y : kAllYears) {
    expect_matches_serial(
        y, [](const query::DataSource& src) { return battery_analysis(src); },
        [](const Dataset& ds) { return serial::battery_analysis(ds); },
        [](const BatteryAnalysis& got, const BatteryAnalysis& ref) {
          expect_profile_eq(got.mean_level, ref.mean_level);
          EXPECT_EQ(got.low_share, ref.low_share);
          EXPECT_EQ(got.mean, ref.mean);
        });
  }
}

// user_days / infer_home_cells / offload_opportunity need the index for
// per-device ranges in both paths, so their invariance is checked across
// thread counts: identical output at 1 and 4 threads.
TEST(IndexEquivalence, UserDaysThreadInvariant) {
  ThreadCountGuard guard;
  for (Year y : kAllYears) {
    const Dataset& ds = campaign(y);
    core::set_thread_count(1);
    const std::vector<UserDay> ref = user_days(ds);
    core::set_thread_count(4);
    const std::vector<UserDay> got = user_days(ds);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].device, ref[i].device);
      EXPECT_EQ(got[i].day, ref[i].day);
      EXPECT_EQ(got[i].cell_rx_mb, ref[i].cell_rx_mb);
      EXPECT_EQ(got[i].cell_tx_mb, ref[i].cell_tx_mb);
      EXPECT_EQ(got[i].wifi_rx_mb, ref[i].wifi_rx_mb);
      EXPECT_EQ(got[i].wifi_tx_mb, ref[i].wifi_tx_mb);
    }
  }
}

TEST(IndexEquivalence, HomeCellsAndOffloadThreadInvariant) {
  ThreadCountGuard guard;
  for (Year y : kAllYears) {
    const Dataset& ds = campaign(y);
    const query::InMemorySource src(ds);
    core::set_thread_count(1);
    const std::vector<GeoCell> homes_ref = infer_home_cells(ds);
    const OffloadOpportunity off_ref = offload_opportunity(src);
    core::set_thread_count(4);
    EXPECT_EQ(infer_home_cells(ds), homes_ref);
    const OffloadOpportunity off = offload_opportunity(src);
    EXPECT_EQ(off.users_with_stable_opportunity,
              off_ref.users_with_stable_opportunity);
    EXPECT_EQ(off.offloadable_cell_share, off_ref.offloadable_cell_share);
    EXPECT_EQ(off.num_wifi_available_users, off_ref.num_wifi_available_users);
  }
}

TEST(AnalysisContextTest, MemoizesSharedIntermediates) {
  const Dataset& ds = campaign(Year::Y2015);
  const AnalysisContext ctx(ds);
  // Repeated calls return the same object, not a recomputation.
  EXPECT_EQ(&ctx.updates(), &ctx.updates());
  EXPECT_EQ(&ctx.days(), &ctx.days());
  EXPECT_EQ(&ctx.classifier(), &ctx.classifier());
  EXPECT_EQ(&ctx.classification(), &ctx.classification());
  EXPECT_EQ(&ctx.home_cells(), &ctx.home_cells());
}

TEST(AnalysisContextTest, MatchesFreshComputation) {
  const Dataset& ds = campaign(Year::Y2015);
  const query::InMemorySource src(ds);
  const AnalysisContext ctx(ds);

  UpdateDetectOptions uopt;
  uopt.min_day = 9;  // 2015 campaign: release on day 9
  const UpdateDetection det = detect_updates(ds, uopt);
  EXPECT_EQ(ctx.updates().update_bin, det.update_bin);
  EXPECT_EQ(ctx.updates().num_updated, det.num_updated);

  UserDayOptions dopt;
  dopt.update_bin_by_device = &det.update_bin;
  const std::vector<UserDay> days = user_days(ds, dopt);
  ASSERT_EQ(ctx.days().size(), days.size());
  for (std::size_t i = 0; i < days.size(); ++i) {
    EXPECT_EQ(ctx.days()[i].device, days[i].device);
    EXPECT_EQ(ctx.days()[i].day, days[i].day);
    EXPECT_EQ(ctx.days()[i].total_rx_mb(), days[i].total_rx_mb());
  }

  const UserClassifier classes(days);
  for (const UserDay& d : days) {
    EXPECT_EQ(ctx.classifier().classify(d), classes.classify(d));
  }

  const ApClassification cls = classify_aps(src);
  const auto got = ctx.classification().counts();
  const auto want = cls.counts();
  EXPECT_EQ(got.home, want.home);
  EXPECT_EQ(got.publik, want.publik);
  EXPECT_EQ(got.other, want.other);
  EXPECT_EQ(got.office, want.office);

  EXPECT_EQ(ctx.home_cells(), infer_home_cells(ds));
}

TEST(DatasetIndexTest, RejectsUnorderedOrOutOfRangeSamples) {
  {
    Dataset ds = empty_dataset(2, 1);
    add_sample(ds, 1, 0);
    add_sample(ds, 0, 0);  // device order violated
    EXPECT_FALSE(ds.build_index());
    EXPECT_FALSE(ds.indexed());
    EXPECT_THROW((void)ds.index(), std::logic_error);
    EXPECT_FALSE(ds.validate().empty());
  }
  {
    Dataset ds = empty_dataset(1, 2);
    add_sample(ds, 0, 5);
    add_sample(ds, 0, 3);  // bin order violated within the device
    EXPECT_FALSE(ds.build_index());
    EXPECT_FALSE(ds.indexed());
  }
  {
    Dataset ds = empty_dataset(1, 1);
    add_sample(ds, 0, static_cast<TimeBin>(kBinsPerDay));  // past day 0
    EXPECT_FALSE(ds.build_index());
  }
  {
    Dataset ds = empty_dataset(1, 1);
    add_sample(ds, 0, 3);
    add_sample(ds, 0, 3);  // one sample per device per bin
    EXPECT_FALSE(ds.build_index());
    EXPECT_NE(ds.validate().find("(device, bin) ordering"), std::string::npos);
  }
  // Out-of-range enum and bool bytes in a sample or in an app record
  // (written raw, as a file or the wire would carry them). The app
  // category is a table rule, so only the sample bytes stop build_index().
  for (int which = 0; which < 4; ++which) {
    Dataset ds = empty_dataset(1, 1);
    ds.app_traffic.push_back({});
    Sample& s = add_sample(ds, 0, 0);
    s.app_count = 1;
    ASSERT_TRUE(ds.validate().empty());
    if (which == 0) std::memset(&s.wifi_state, 200, 1);
    if (which == 1) std::memset(&s.tech, 200, 1);
    if (which == 2) std::memset(&s.tethering, 2, 1);
    if (which == 3) std::memset(&ds.app_traffic[0].category, 200, 1);
    if (which < 3) EXPECT_FALSE(ds.build_index()) << "case " << which;
    const std::string err = ds.validate_and_index();
    EXPECT_NE(err.find("out-of-range"), std::string::npos)
        << "case " << which << ": " << err;
    EXPECT_FALSE(ds.indexed()) << "case " << which;
  }
  // The app-layout rule: within a device, each app-bearing sample's
  // records start where the previous one's ended. Two samples sharing
  // record 0, or a gap, break it; each device starts its own run.
  for (const std::uint32_t second_begin : {0u, 2u}) {
    Dataset ds = empty_dataset(1, 1);
    ds.app_traffic.resize(3);
    add_sample(ds, 0, 0).app_count = 1;
    Sample& s = add_sample(ds, 0, 1);
    s.app_begin = second_begin;
    s.app_count = 1;
    EXPECT_FALSE(ds.build_index()) << "app_begin " << second_begin;
    EXPECT_NE(ds.validate().find("previous app-bearing sample"),
              std::string::npos)
        << ds.validate();
  }
  {
    Dataset ds = empty_dataset(2, 1);
    ds.app_traffic.resize(3);
    Sample& a = add_sample(ds, 0, 0);
    a.app_begin = 2;
    a.app_count = 1;
    add_sample(ds, 1, 0).app_count = 2;  // another device: records 0..1
    EXPECT_TRUE(ds.validate().empty()) << ds.validate();
    ASSERT_TRUE(ds.build_index());
    EXPECT_EQ(ds.index().device_app_begin(0), 2u);
    EXPECT_EQ(ds.index().device_app_end(0), 3u);
    EXPECT_EQ(ds.index().device_app_begin(1), 0u);
    EXPECT_EQ(ds.index().device_app_end(1), 2u);
  }
  {
    Dataset ds = empty_dataset(2, 1);
    add_sample(ds, 0, 0);
    add_sample(ds, 1, 0);
    EXPECT_TRUE(ds.build_index());
    EXPECT_TRUE(ds.indexed());
    EXPECT_EQ(ds.index().num_samples(), 2u);
  }
}

// Being indexed is a Dataset invariant with one check: a kernel handed
// an unindexed dataset throws std::logic_error from Dataset::index(),
// whichever path it takes to the samples, and never reads past a
// missing index.
TEST(DatasetIndexTest, UnindexedDatasetThrowsFromKernels) {
  Dataset ds = empty_dataset(2, 1);
  const ApId ap = test::add_ap(ds, "home");
  add_sample(ds, 0, 0, 1000, 0);
  add_sample(ds, 1, 0, 0, 1000, WifiState::Associated, ap);
  ASSERT_FALSE(ds.indexed());
  const auto expect_throws = [&] {
    EXPECT_THROW((void)ds.index(), std::logic_error);
    EXPECT_THROW((void)detect_updates(ds), std::logic_error);
    EXPECT_THROW((void)user_days(ds), std::logic_error);
    const query::InMemorySource src(ds);
    EXPECT_THROW((void)aggregate_series(src, Stream::CellRx), std::logic_error);
    EXPECT_THROW((void)compute_wifi_states(src), std::logic_error);
    EXPECT_THROW((void)battery_analysis(src), std::logic_error);
    EXPECT_THROW((void)infer_home_cells(ds), std::logic_error);
    EXPECT_THROW((void)classify_aps(src), std::logic_error);
  };
  expect_throws();

  // An index that no longer matches the samples counts as no index.
  test::build_index(ds);
  add_sample(ds, 1, 1);
  ASSERT_FALSE(ds.indexed());
  expect_throws();
}

TEST(DatasetIndexTest, RangesAndColumnsMirrorTheSampleStream) {
  const Dataset& ds = campaign(Year::Y2014);
  const core::DatasetIndex& idx = ds.index();
  ASSERT_EQ(idx.num_samples(), ds.samples.size());

  // Device ranges tile [0, n) and agree with the per-sample device ids;
  // day ranges tile each device range.
  std::size_t expect_begin = 0;
  for (std::size_t d = 0; d < ds.devices.size(); ++d) {
    EXPECT_EQ(idx.device_begin(d), expect_begin);
    EXPECT_EQ(idx.day_begin(d, 0), idx.device_begin(d));
    EXPECT_EQ(idx.day_begin(d, ds.num_days()), idx.device_end(d));
    for (int day = 0; day < ds.num_days(); ++day) {
      EXPECT_LE(idx.day_begin(d, day), idx.day_begin(d, day + 1));
    }
    expect_begin = idx.device_end(d);
  }
  EXPECT_EQ(expect_begin, ds.samples.size());

  // SoA projections match the AoS fields (spot check a stride).
  for (std::size_t i = 0; i < ds.samples.size(); i += 97) {
    const Sample& s = ds.samples[i];
    EXPECT_EQ(idx.bin()[i], s.bin);
    EXPECT_EQ(idx.cell_rx()[i], s.cell_rx);
    EXPECT_EQ(idx.cell_tx()[i], s.cell_tx);
    EXPECT_EQ(idx.wifi_rx()[i], s.wifi_rx);
    EXPECT_EQ(idx.wifi_tx()[i], s.wifi_tx);
    EXPECT_EQ(idx.ap()[i], value(s.ap));
    EXPECT_EQ(idx.wifi_state()[i], s.wifi_state);
    EXPECT_EQ(idx.tech()[i], s.tech);
    EXPECT_EQ(idx.battery_pct()[i], s.battery_pct);
    EXPECT_EQ(idx.rssi_dbm()[i], s.rssi_dbm);
    EXPECT_EQ(idx.geo_cell()[i], s.geo_cell);
    EXPECT_EQ(idx.app_count()[i], s.app_count);
    EXPECT_EQ(idx.tethering(i), s.tethering);
    EXPECT_EQ(idx.scan_pub24_all()[i], s.scan_pub24_all);
    EXPECT_EQ(idx.scan_pub24_strong()[i], s.scan_pub24_strong);
    EXPECT_EQ(idx.scan_pub5_all()[i], s.scan_pub5_all);
    EXPECT_EQ(idx.scan_pub5_strong()[i], s.scan_pub5_strong);
  }
}

TEST(DatasetIndexTest, HourOfWeekTableMatchesWeeklyProfile) {
  const Dataset& ds = campaign(Year::Y2013);
  const auto table = ds.index().hour_of_week_table();
  const int num_bins = ds.num_days() * kBinsPerDay;
  ASSERT_EQ(static_cast<int>(table.size()), num_bins);
  for (int b = 0; b < num_bins; ++b) {
    EXPECT_EQ(table[static_cast<std::size_t>(b)],
              WeeklyProfile::hour_of_week(ds.calendar,
                                          static_cast<TimeBin>(b)));
  }
}

}  // namespace
}  // namespace tokyonet::analysis
