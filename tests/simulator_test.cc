#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/dataset_index.h"
#include "core/parallel.h"
#include "testutil.h"

namespace tokyonet::sim {
namespace {

using test::campaign;

[[nodiscard]] bool samples_equal(const Sample& a, const Sample& b) {
  return a.device == b.device && a.bin == b.bin && a.geo_cell == b.geo_cell &&
         a.cell_rx == b.cell_rx && a.cell_tx == b.cell_tx &&
         a.wifi_rx == b.wifi_rx && a.wifi_tx == b.wifi_tx && a.ap == b.ap &&
         a.app_begin == b.app_begin && a.app_count == b.app_count &&
         a.tech == b.tech && a.wifi_state == b.wifi_state &&
         a.rssi_dbm == b.rssi_dbm && a.battery_pct == b.battery_pct &&
         a.tethering == b.tethering &&
         a.scan_pub24_all == b.scan_pub24_all &&
         a.scan_pub24_strong == b.scan_pub24_strong &&
         a.scan_pub5_all == b.scan_pub5_all &&
         a.scan_pub5_strong == b.scan_pub5_strong;
}

TEST(Simulator, DeterministicAcrossThreadCounts) {
  // The tentpole guarantee: simulating with the thread pool produces a
  // dataset byte-identical to the serial run, for every campaign year.
  for (const Year year : {Year::Y2013, Year::Y2014, Year::Y2015}) {
    core::set_thread_count(1);
    const Dataset serial = simulate_year(year, 0.05);
    core::set_thread_count(4);
    const Dataset parallel = simulate_year(year, 0.05);
    core::set_thread_count(0);

    ASSERT_EQ(serial.samples.size(), parallel.samples.size());
    for (std::size_t i = 0; i < serial.samples.size(); ++i) {
      ASSERT_TRUE(samples_equal(serial.samples[i], parallel.samples[i]))
          << "sample " << i << " differs (year "
          << static_cast<int>(year) << ")";
    }

    ASSERT_EQ(serial.app_traffic.size(), parallel.app_traffic.size());
    for (std::size_t i = 0; i < serial.app_traffic.size(); ++i) {
      ASSERT_EQ(serial.app_traffic[i].category,
                parallel.app_traffic[i].category);
      ASSERT_EQ(serial.app_traffic[i].rx_bytes,
                parallel.app_traffic[i].rx_bytes);
      ASSERT_EQ(serial.app_traffic[i].tx_bytes,
                parallel.app_traffic[i].tx_bytes);
    }

    ASSERT_EQ(serial.truth.devices.size(), parallel.truth.devices.size());
    for (std::size_t i = 0; i < serial.truth.devices.size(); ++i) {
      ASSERT_EQ(serial.truth.devices[i].update_bin,
                parallel.truth.devices[i].update_bin);
      ASSERT_EQ(serial.truth.devices[i].capped_day,
                parallel.truth.devices[i].capped_day);
    }

    ASSERT_EQ(serial.survey.size(), parallel.survey.size());
    for (std::size_t i = 0; i < serial.survey.size(); ++i) {
      ASSERT_EQ(serial.survey[i].occupation, parallel.survey[i].occupation);
      for (int loc = 0; loc < kNumSurveyLocations; ++loc) {
        ASSERT_EQ(serial.survey[i].connected[loc],
                  parallel.survey[i].connected[loc]);
        ASSERT_EQ(serial.survey[i].reasons[loc],
                  parallel.survey[i].reasons[loc]);
      }
    }
  }
}

TEST(Simulator, DeterministicAcrossDevicePartitionings) {
  // Counter-based draws key on (device, day, bin), not on how many draws
  // some earlier device consumed — so sweeping the panel one device at a
  // time, sixteen at a time, or as one block must produce byte-identical
  // campaigns. TOKYONET_SIM_DEVICE_BLOCK picks the sweep granularity
  // (default 1).
  const Dataset base = simulate_year(Year::Y2015, 0.05);
  for (const char* block : {"16", "1000000"}) {
    ASSERT_EQ(setenv("TOKYONET_SIM_DEVICE_BLOCK", block, 1), 0);
    const Dataset other = simulate_year(Year::Y2015, 0.05);
    ASSERT_EQ(unsetenv("TOKYONET_SIM_DEVICE_BLOCK"), 0);

    ASSERT_EQ(base.samples.size(), other.samples.size());
    for (std::size_t i = 0; i < base.samples.size(); ++i) {
      ASSERT_TRUE(samples_equal(base.samples[i], other.samples[i]))
          << "sample " << i << " differs at block size " << block;
    }
    ASSERT_EQ(base.app_traffic.size(), other.app_traffic.size());
    for (std::size_t i = 0; i < base.app_traffic.size(); ++i) {
      ASSERT_EQ(base.app_traffic[i].rx_bytes, other.app_traffic[i].rx_bytes);
      ASSERT_EQ(base.app_traffic[i].tx_bytes, other.app_traffic[i].tx_bytes);
    }
    ASSERT_EQ(base.truth.devices.size(), other.truth.devices.size());
    for (std::size_t i = 0; i < base.truth.devices.size(); ++i) {
      ASSERT_EQ(base.truth.devices[i].update_bin,
                other.truth.devices[i].update_bin);
    }
  }
}

TEST(Simulator, EmitsDenseIndexedCampaign) {
  // One sample per (device, bin) with in-order bins: the index's dense
  // flag must hold, since the columnar kernels take their fixed-stride
  // fast paths from it.
  const Dataset& ds = campaign(Year::Y2015);
  ASSERT_TRUE(ds.indexed());
  EXPECT_TRUE(ds.index().dense());
}

TEST(Simulator, DeterministicAcrossRuns) {
  const Dataset a = simulate_year(Year::Y2014, 0.05);
  const Dataset b = simulate_year(Year::Y2014, 0.05);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  ASSERT_EQ(a.aps.size(), b.aps.size());
  for (std::size_t i = 0; i < a.samples.size(); i += 97) {
    EXPECT_EQ(a.samples[i].cell_rx, b.samples[i].cell_rx);
    EXPECT_EQ(a.samples[i].wifi_rx, b.samples[i].wifi_rx);
    EXPECT_EQ(a.samples[i].ap, b.samples[i].ap);
    EXPECT_EQ(a.samples[i].wifi_state, b.samples[i].wifi_state);
  }
}

TEST(Simulator, SamplesSortedAndComplete) {
  const Dataset& ds = campaign(Year::Y2015);
  ASSERT_TRUE(ds.indexed());
  // Every device emits exactly one sample per bin.
  EXPECT_EQ(ds.samples.size(),
            ds.devices.size() * static_cast<std::size_t>(ds.calendar.num_bins()));
  for (std::size_t i = 1; i < ds.samples.size(); ++i) {
    const Sample& p = ds.samples[i - 1];
    const Sample& s = ds.samples[i];
    ASSERT_TRUE(value(p.device) < value(s.device) ||
                (p.device == s.device && p.bin < s.bin));
  }
}

TEST(Simulator, TruthArraysParallel) {
  const Dataset& ds = campaign(Year::Y2015);
  EXPECT_EQ(ds.truth.devices.size(), ds.devices.size());
  EXPECT_EQ(ds.truth.aps.size(), ds.aps.size());
  EXPECT_EQ(ds.survey.size(), ds.devices.size());
  for (const DeviceTruth& t : ds.truth.devices) {
    EXPECT_EQ(t.capped_day.size(),
              static_cast<std::size_t>(ds.num_days()));
  }
}

TEST(Simulator, OneInterfacePerBin) {
  // The simulator routes each bin's traffic over exactly one interface.
  const Dataset& ds = campaign(Year::Y2015);
  for (const Sample& s : ds.samples) {
    const bool cell = s.cell_rx > 0 || s.cell_tx > 0;
    const bool wifi = s.wifi_rx > 0 || s.wifi_tx > 0;
    EXPECT_FALSE(cell && wifi);
    if (wifi) {
      EXPECT_EQ(s.wifi_state, WifiState::Associated);
      EXPECT_NE(s.ap, kNoAp);
    }
    if (cell) {
      EXPECT_NE(s.tech, CellTech::None);
    }
  }
}

TEST(Simulator, AppTrafficConservation) {
  // For Android samples, per-app RX sums to the interface counter.
  const Dataset& ds = campaign(Year::Y2015);
  std::size_t checked = 0;
  for (const Sample& s : ds.samples) {
    if (ds.devices[value(s.device)].os != Os::Android) continue;
    if (s.app_count == 0) continue;
    std::uint64_t rx = 0, tx = 0;
    for (const AppTraffic& at : ds.apps_of(s)) {
      rx += at.rx_bytes;
      tx += at.tx_bytes;
    }
    const std::uint64_t iface_rx = std::uint64_t{s.cell_rx} + s.wifi_rx;
    const std::uint64_t iface_tx = std::uint64_t{s.cell_tx} + s.wifi_tx;
    ASSERT_NEAR(static_cast<double>(rx), static_cast<double>(iface_rx), 8.0);
    ASSERT_NEAR(static_cast<double>(tx), static_cast<double>(iface_tx), 8.0);
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
}

TEST(Simulator, IosReportsNoAppBreakdown) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const Sample& s : ds.samples) {
    if (ds.devices[value(s.device)].os == Os::Ios) {
      ASSERT_EQ(s.app_count, 0);
    }
  }
}

TEST(Simulator, IosReportsNoScans) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const Sample& s : ds.samples) {
    if (ds.devices[value(s.device)].os == Os::Ios) {
      ASSERT_EQ(s.scan_pub24_all, 0);
      ASSERT_EQ(s.scan_pub5_all, 0);
    }
  }
}

TEST(Simulator, ScanStrongSubsetOfAll) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const Sample& s : ds.samples) {
    ASSERT_LE(s.scan_pub24_strong, s.scan_pub24_all);
    ASSERT_LE(s.scan_pub5_strong, s.scan_pub5_all);
  }
}

TEST(Simulator, AssociatedSamplesHaveRssi) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const Sample& s : ds.samples) {
    if (s.wifi_state == WifiState::Associated) {
      ASSERT_NE(s.ap, kNoAp);
      ASSERT_LT(value(s.ap), ds.aps.size());
      ASSERT_GE(s.rssi_dbm, -95);
      ASSERT_LE(s.rssi_dbm, -25);
    }
  }
}

TEST(Simulator, UpdatesOnlyOnIosAndOnlyIn2015) {
  const Dataset& ds15 = campaign(Year::Y2015);
  int updated = 0;
  for (std::size_t i = 0; i < ds15.devices.size(); ++i) {
    if (ds15.truth.devices[i].update_bin >= 0) {
      ++updated;
      EXPECT_EQ(ds15.devices[i].os, Os::Ios);
      // Updates begin after the March 10th release (day 10).
      EXPECT_GE(ds15.calendar.day_of(static_cast<TimeBin>(
                    ds15.truth.devices[i].update_bin)),
                10);
    }
  }
  EXPECT_GT(updated, 20);

  const Dataset& ds13 = campaign(Year::Y2013);
  for (const DeviceTruth& t : ds13.truth.devices) {
    EXPECT_EQ(t.update_bin, -1);
  }
}

TEST(Simulator, UpdatedDevicesCarryTheImageVolume) {
  const Dataset& ds = campaign(Year::Y2015);
  const double size_mb = scenario_config(Year::Y2015).update.size_mb;
  std::vector<double> volumes;
  for (std::size_t i = 0; i < ds.devices.size(); ++i) {
    const std::int32_t ub = ds.truth.devices[i].update_bin;
    if (ub < 0) continue;
    // WiFi RX from the update start to the end of the campaign. Devices
    // that started on a short public-WiFi session may finish the image
    // over later sessions (or not at all within the campaign).
    double mb = 0;
    for (const Sample& s : ds.device_samples(ds.devices[i].id)) {
      if (s.bin >= ub) mb += s.wifi_rx / 1e6;
    }
    EXPECT_GT(mb, 100.0);  // at least a substantial chunk streamed
    volumes.push_back(mb);
  }
  ASSERT_FALSE(volumes.empty());
  // The typical updated device carries (at least) the full image.
  std::nth_element(volumes.begin(), volumes.begin() + volumes.size() / 2,
                   volumes.end());
  EXPECT_GT(volumes[volumes.size() / 2], size_mb * 0.9);
}

TEST(Simulator, CappedDayTruthConsistentWithTraffic) {
  const Dataset& ds = campaign(Year::Y2015);
  const double threshold = scenario_config(Year::Y2015).cap.threshold_mb;
  // Recompute per-device daily cellular downloads and check the recorded
  // capped days match the 3-day-window rule.
  for (const DeviceInfo& dev : ds.devices) {
    std::vector<double> daily(static_cast<std::size_t>(ds.num_days()), 0.0);
    for (const Sample& s : ds.device_samples(dev.id)) {
      daily[static_cast<std::size_t>(ds.calendar.day_of(s.bin))] +=
          s.cell_rx / 1e6;
    }
    const auto& truth = ds.truth.devices[value(dev.id)];
    for (int d = 0; d < ds.num_days(); ++d) {
      double window = 0;
      for (int k = d - 3; k < d; ++k) {
        if (k >= 0) window += daily[static_cast<std::size_t>(k)];
      }
      ASSERT_EQ(truth.capped_day[static_cast<std::size_t>(d)] != 0,
                window > threshold);
    }
  }
}

TEST(Simulator, HomeAssociationsUseTheHomeAp) {
  const Dataset& ds = campaign(Year::Y2015);
  for (const DeviceInfo& dev : ds.devices) {
    const DeviceTruth& t = ds.truth.devices[value(dev.id)];
    if (!t.has_home_ap) continue;
    // Samples associated during deep night at the home cell must use the
    // user's own home AP.
    for (const Sample& s : ds.device_samples(dev.id)) {
      if (s.wifi_state != WifiState::Associated) continue;
      if (ds.calendar.hour_of(s.bin) != 3) continue;
      EXPECT_EQ(s.ap, t.home_ap);
    }
  }
}

TEST(Simulator, ScaleControlsPopulation) {
  const Dataset small = simulate_year(Year::Y2013, 0.03);
  EXPECT_LT(small.devices.size(), 80u);
  EXPECT_GT(small.devices.size(), 40u);
}

}  // namespace
}  // namespace tokyonet::sim
