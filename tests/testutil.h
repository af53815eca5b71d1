// Shared test fixtures: cached small-scale campaign datasets (simulating
// a campaign is deterministic but not free, so tests share one instance
// per year), helpers for building tiny synthetic datasets by hand, and a
// per-test scratch directory.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "analysis/classify.h"
#include "core/records.h"
#include "core/scenario.h"
#include "sim/simulator.h"

namespace tokyonet::test {

/// Scale used for the shared campaign fixtures (about 200 devices).
inline constexpr double kTestScale = 0.12;

/// Lazily simulated, cached campaign for `year` at kTestScale.
inline const Dataset& campaign(Year year) {
  static const Dataset* cache[kNumYears] = {};
  const int i = static_cast<int>(year);
  if (cache[i] == nullptr) {
    cache[i] = new Dataset(sim::simulate_year(year, kTestScale));
  }
  return *cache[i];
}

/// Cached AP classification for the shared campaign.
inline const analysis::ApClassification& campaign_classification(Year year) {
  static const analysis::ApClassification* cache[kNumYears] = {};
  const int i = static_cast<int>(year);
  if (cache[i] == nullptr) {
    cache[i] = new analysis::ApClassification(
        analysis::classify_aps(campaign(year)));
  }
  return *cache[i];
}

/// A minimal hand-built dataset: `num_devices` devices, `num_days` days,
/// no samples (callers append samples then call test::build_index()).
inline Dataset empty_dataset(int num_devices, int num_days,
                             Year year = Year::Y2015) {
  Dataset ds;
  ds.year = year;
  ds.calendar = CampaignCalendar(Date{2015, 2, 28}, num_days);
  for (int i = 0; i < num_devices; ++i) {
    DeviceInfo d;
    d.id = DeviceId{static_cast<std::uint32_t>(i)};
    d.os = i % 2 == 0 ? Os::Android : Os::Ios;
    ds.devices.push_back(d);
  }
  ds.truth.devices.resize(static_cast<std::size_t>(num_devices));
  ds.survey.resize(static_cast<std::size_t>(num_devices));
  return ds;
}

/// Appends one sample with the given volumes (bytes) to `ds`.
/// Samples must be appended in (device, bin) order.
inline Sample& add_sample(Dataset& ds, std::uint32_t device, TimeBin bin,
                          std::uint32_t cell_rx = 0, std::uint32_t wifi_rx = 0,
                          WifiState state = WifiState::Off,
                          ApId ap = kNoAp) {
  Sample s;
  s.device = DeviceId{device};
  s.bin = bin;
  s.cell_rx = cell_rx;
  s.wifi_rx = wifi_rx;
  s.wifi_state = state;
  s.ap = ap;
  if (cell_rx > 0) s.tech = CellTech::Lte;
  ds.samples.push_back(s);
  return ds.samples.back();
}

/// Adds an AP with the given ESSID and returns its id.
inline ApId add_ap(Dataset& ds, std::string essid, Band band = Band::B24GHz,
                   std::uint8_t channel = 6) {
  ApInfo info;
  info.bssid = 0x1000 + ds.aps.size();
  info.essid = std::move(essid);
  info.band = band;
  info.channel = channel;
  ds.aps.push_back(std::move(info));
  ds.truth.aps.push_back(ApTruth{});
  return ApId{static_cast<std::uint32_t>(ds.aps.size() - 1)};
}

/// Indexes a hand-built dataset. Every dataset that reaches an analysis
/// kernel must be indexed (Dataset::index() throws otherwise), so
/// fixtures go through this one helper, which fails the test when
/// build_index() refuses the samples.
inline void build_index(Dataset& ds) {
  ASSERT_TRUE(ds.build_index()) << ds.validate();
}

/// A fresh, empty scratch directory for the running test, removed on
/// scope exit. The name carries the process id and the test's suite and
/// name, so ctest entries that run the same test in parallel processes
/// (e.g. at different thread counts) never share or delete each
/// other's files.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "tokyonet_" + std::to_string(::getpid()) + "_" +
                       info->test_suite_name() + "_" + info->name();
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized suites and tests
    }
    path = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

}  // namespace tokyonet::test
