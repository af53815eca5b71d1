// Serial reference implementations (the oracle) of the indexed analysis
// kernels.
//
// Each function is the plain per-sample loop over the AoS
// `Dataset::samples` array that the matching kernel in src/analysis
// computes from the DatasetIndex columns: one thread, no chunking, no
// fixed-stride or run-length shortcuts. tests/index_equiv_test.cc runs
// every indexed kernel at thread counts 1 and 4 and requires its output
// to equal the oracle's bit for bit. The oracle reads only the AoS
// records, so a bug in the index projection, a fast path or a chunk
// reduction cannot hide on both sides.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/apps.h"
#include "analysis/availability.h"
#include "analysis/battery.h"
#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/quality.h"
#include "analysis/volumes.h"
#include "analysis/wifistate.h"
#include "net/radio.h"
#include "stats/descriptive.h"

namespace tokyonet::analysis::serial {

[[nodiscard]] inline std::vector<std::uint64_t> zero_hours(
    const Dataset& ds) {
  return std::vector<std::uint64_t>(
      static_cast<std::size_t>(ds.num_days()) * 24, 0);
}

[[nodiscard]] inline std::size_t hour_of(const Sample& s) {
  return static_cast<std::size_t>(s.bin / kBinsPerHour);
}

[[nodiscard]] inline bool associated(const Sample& s) {
  return s.wifi_state == WifiState::Associated && s.ap != kNoAp;
}

[[nodiscard]] inline HourlySeries aggregate_series(const Dataset& ds,
                                                   Stream stream) {
  std::vector<std::uint64_t> total = zero_hours(ds);
  for (const Sample& s : ds.samples) {
    switch (stream) {
      case Stream::CellRx: total[hour_of(s)] += s.cell_rx; break;
      case Stream::CellTx: total[hour_of(s)] += s.cell_tx; break;
      case Stream::WifiRx: total[hour_of(s)] += s.wifi_rx; break;
      case Stream::WifiTx: total[hour_of(s)] += s.wifi_tx; break;
    }
  }
  return hourly_series_from_sums(total);
}

[[nodiscard]] inline HourlySeries location_series(const Dataset& ds,
                                                  const ApClassification& cls,
                                                  LocationFilter filter,
                                                  bool rx) {
  std::vector<std::uint64_t> total = zero_hours(ds);
  for (const Sample& s : ds.samples) {
    if (!associated(s) || cls.class_of(s.ap) != filter.ap_class) continue;
    if (filter.office_only && !cls.is_office[value(s.ap)]) continue;
    total[hour_of(s)] += rx ? s.wifi_rx : s.wifi_tx;
  }
  return hourly_series_from_sums(total);
}

[[nodiscard]] inline WifiLocationShares wifi_location_shares(
    const Dataset& ds, const ApClassification& cls) {
  std::array<std::uint64_t, 4> sums{};  // home, public, office, other
  for (const Sample& s : ds.samples) {
    if (!associated(s)) continue;
    const std::uint64_t v = std::uint64_t{s.wifi_rx} + s.wifi_tx;
    switch (cls.class_of(s.ap)) {
      case ApClass::Home: sums[0] += v; break;
      case ApClass::Public: sums[1] += v; break;
      case ApClass::Other:
        sums[cls.is_office[value(s.ap)] ? 2 : 3] += v;
        break;
    }
  }
  const double home = static_cast<double>(sums[0]);
  const double publik = static_cast<double>(sums[1]);
  const double office = static_cast<double>(sums[2]);
  const double other = static_cast<double>(sums[3]);
  const double total = home + publik + office + other;
  WifiLocationShares out;
  if (total > 0) {
    out.home = home / total;
    out.publik = publik / total;
    out.office = office / total;
    out.other = other / total;
  }
  return out;
}

[[nodiscard]] inline RssiAnalysis rssi_analysis(const Dataset& ds,
                                                const ApClassification& cls) {
  std::vector<double> max_rssi(ds.aps.size(), -1e9);
  for (const Sample& s : ds.samples) {
    if (!associated(s) || ds.aps[value(s.ap)].band != Band::B24GHz) continue;
    max_rssi[value(s.ap)] =
        std::max(max_rssi[value(s.ap)], static_cast<double>(s.rssi_dbm));
  }
  RssiAnalysis out;
  for (std::size_t a = 0; a < max_rssi.size(); ++a) {
    if (max_rssi[a] < -200) continue;
    switch (cls.ap_class[a]) {
      case ApClass::Home: out.home_max_rssi.push_back(max_rssi[a]); break;
      case ApClass::Public: out.public_max_rssi.push_back(max_rssi[a]); break;
      case ApClass::Other: break;
    }
  }
  out.home_mean = stats::mean(out.home_max_rssi);
  out.public_mean = stats::mean(out.public_max_rssi);
  const auto below = [](const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    std::size_t n = 0;
    for (double r : v) n += r < net::kStrongRssiDbm;
    return static_cast<double>(n) / static_cast<double>(v.size());
  };
  out.home_below_70_share = below(out.home_max_rssi);
  out.public_below_70_share = below(out.public_max_rssi);
  return out;
}

[[nodiscard]] inline ChannelAnalysis channel_analysis(
    const Dataset& ds, const ApClassification& cls) {
  std::array<double, 14> home{}, publik{};
  for (const Sample& s : ds.samples) {
    if (!associated(s)) continue;
    if (ds.devices[value(s.device)].os != Os::Android) continue;
    const ApInfo& ap = ds.aps[value(s.ap)];
    if (ap.band != Band::B24GHz || ap.channel > 13) continue;
    if (cls.class_of(s.ap) == ApClass::Home) home[ap.channel] += 1;
    if (cls.class_of(s.ap) == ApClass::Public) publik[ap.channel] += 1;
  }
  double home_total = 0, public_total = 0;
  for (std::size_t c = 0; c < 14; ++c) {
    home_total += home[c];
    public_total += publik[c];
  }
  ChannelAnalysis out;
  for (std::size_t c = 0; c < 14; ++c) {
    out.home_pmf[c] = home_total > 0 ? home[c] / home_total : 0;
    out.public_pmf[c] = public_total > 0 ? publik[c] / public_total : 0;
  }
  return out;
}

/// Most common device cell per AP while associated, over APs with
/// keep(ap); the lowest cell wins a tie. kNoGeoCell for APs never seen.
template <typename Keep>
[[nodiscard]] std::vector<GeoCell> ap_top_cells(const Dataset& ds,
                                                Keep&& keep) {
  std::vector<std::map<GeoCell, int>> counts(ds.aps.size());
  for (const Sample& s : ds.samples) {
    if (!associated(s) || s.geo_cell == kNoGeoCell) continue;
    if (keep(value(s.ap))) ++counts[value(s.ap)][s.geo_cell];
  }
  std::vector<GeoCell> out(ds.aps.size(), kNoGeoCell);
  for (std::size_t a = 0; a < counts.size(); ++a) {
    int best = 0;
    for (const auto& [cell, n] : counts[a]) {
      if (n > best) {
        best = n;
        out[a] = cell;
      }
    }
  }
  return out;
}

[[nodiscard]] inline InterferenceAnalysis channel_interference(
    const Dataset& ds, const ApClassification& cls, int num_cells,
    int min_channel_gap = 5) {
  const std::vector<GeoCell> cells = ap_top_cells(
      ds, [&](std::size_t a) { return ds.aps[a].band == Band::B24GHz; });
  std::vector<std::vector<std::size_t>> by_cell(
      static_cast<std::size_t>(num_cells));
  for (std::size_t a = 0; a < ds.aps.size(); ++a) {
    if (!cls.associated[a] || cells[a] == kNoGeoCell) continue;
    if (cells[a] >= num_cells || cls.ap_class[a] == ApClass::Other) continue;
    by_cell[cells[a]].push_back(a);
  }
  int home_conflicts = 0, public_conflicts = 0;
  InterferenceAnalysis out;
  for (const std::vector<std::size_t>& bucket : by_cell) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      for (std::size_t j = i + 1; j < bucket.size(); ++j) {
        const std::size_t a = bucket[i], b = bucket[j];
        if (cls.ap_class[a] != cls.ap_class[b]) continue;
        const bool overlap = std::abs(ds.aps[a].channel - ds.aps[b].channel) <
                             min_channel_gap;
        if (cls.ap_class[a] == ApClass::Home) {
          ++out.home_pairs;
          home_conflicts += overlap;
        } else {
          ++out.public_pairs;
          public_conflicts += overlap;
        }
      }
    }
  }
  if (out.home_pairs > 0) {
    out.home_conflict_share =
        static_cast<double>(home_conflicts) / out.home_pairs;
  }
  if (out.public_pairs > 0) {
    out.public_conflict_share =
        static_cast<double>(public_conflicts) / out.public_pairs;
  }
  return out;
}

[[nodiscard]] inline ApDensityMap ap_density_map(const Dataset& ds,
                                                 const ApClassification& cls,
                                                 ApClass which,
                                                 int num_cells) {
  const std::vector<GeoCell> cells = ap_top_cells(
      ds, [&](std::size_t a) { return cls.ap_class[a] == which; });
  ApDensityMap out;
  out.count_by_cell.assign(static_cast<std::size_t>(num_cells), 0);
  for (const GeoCell cell : cells) {
    if (cell != kNoGeoCell && cell < num_cells) ++out.count_by_cell[cell];
  }
  for (int n : out.count_by_cell) {
    out.cells_with_ap += n >= 1;
    out.cells_with_100 += n >= 100;
    out.max_count = std::max(out.max_count, n);
  }
  return out;
}

[[nodiscard]] inline WifiStateProfiles compute_wifi_states(const Dataset& ds) {
  const CampaignCalendar& cal = ds.calendar;
  WifiStateProfiles p;
  for (const Sample& s : ds.samples) {
    const auto share = [&](WifiState st) {
      return s.wifi_state == st ? 1.0 : 0.0;
    };
    if (ds.devices[value(s.device)].os == Os::Android) {
      p.android_user.add(cal, s.bin, share(WifiState::Associated), 1.0);
      p.android_off.add(cal, s.bin, share(WifiState::Off), 1.0);
      p.android_available.add(cal, s.bin, share(WifiState::OnUnassociated),
                              1.0);
    } else {
      p.ios_user.add(cal, s.bin, share(WifiState::Associated), 1.0);
    }
  }
  return p;
}

[[nodiscard]] inline std::array<double, kNumCarriers>
ios_wifi_user_by_carrier(const Dataset& ds) {
  std::array<std::uint64_t, kNumCarriers> assoc{}, total{};
  for (const Sample& s : ds.samples) {
    const DeviceInfo& dev = ds.devices[value(s.device)];
    if (dev.os != Os::Ios) continue;
    const auto c = static_cast<std::size_t>(dev.carrier);
    total[c] += 1;
    assoc[c] += s.wifi_state == WifiState::Associated;
  }
  std::array<double, kNumCarriers> out{};
  for (std::size_t c = 0; c < kNumCarriers; ++c) {
    if (total[c] > 0) {
      out[c] = static_cast<double>(assoc[c]) / static_cast<double>(total[c]);
    }
  }
  return out;
}

[[nodiscard]] inline DatasetOverview overview(const Dataset& ds) {
  DatasetOverview o;
  for (const DeviceInfo& d : ds.devices) {
    ++o.n_total;
    (d.os == Os::Android ? o.n_android : o.n_ios) += 1;
  }
  std::uint64_t lte = 0, total = 0;
  for (const Sample& s : ds.samples) {
    total += s.cell_rx;
    if (s.tech == CellTech::Lte) lte += s.cell_rx;
  }
  o.lte_traffic_share =
      total > 0 ? static_cast<double>(lte) / static_cast<double>(total) : 0;
  return o;
}

[[nodiscard]] inline AppBreakdown app_breakdown(
    const Dataset& ds, const ApClassification& cls,
    const std::vector<GeoCell>& home_cells,
    const AppBreakdownOptions& opt = {}) {
  const auto num_days = static_cast<std::size_t>(ds.num_days());
  std::vector<bool> light_day(ds.devices.size() * num_days, false);
  if (opt.light_users_only) {
    for (const UserDay& d : *opt.days) {
      light_day[value(d.device) * num_days + static_cast<std::size_t>(d.day)] =
          opt.classes->classify(d) == UserClass::Light;
    }
  }
  using Sums = std::array<std::array<std::uint64_t, kNumAppCategories>,
                          kNumAppContexts>;
  Sums rx{}, tx{};
  for (const Sample& s : ds.samples) {
    if (ds.devices[value(s.device)].os != Os::Android) continue;
    const std::size_t day = static_cast<std::size_t>(ds.calendar.day_of(s.bin));
    if (opt.light_users_only && !light_day[value(s.device) * num_days + day]) {
      continue;
    }
    AppContext ctx = AppContext::CellOther;
    if (associated(s)) {
      if (cls.class_of(s.ap) == ApClass::Other) continue;  // not tabulated
      ctx = cls.class_of(s.ap) == ApClass::Home ? AppContext::WifiHome
                                                : AppContext::WifiPublic;
    } else if (const GeoCell home = home_cells[value(s.device)];
               home != kNoGeoCell && s.geo_cell == home) {
      ctx = AppContext::CellHome;
    }
    for (const AppTraffic& at : ds.apps_of(s)) {
      const auto c = static_cast<std::size_t>(at.category);
      rx[static_cast<std::size_t>(ctx)][c] += at.rx_bytes;
      tx[static_cast<std::size_t>(ctx)][c] += at.tx_bytes;
    }
  }
  AppBreakdown out;
  for (std::size_t ctx = 0; ctx < kNumAppContexts; ++ctx) {
    double rx_total = 0, tx_total = 0;
    for (std::size_t c = 0; c < rx[ctx].size(); ++c) {
      rx_total += static_cast<double>(rx[ctx][c]);
      tx_total += static_cast<double>(tx[ctx][c]);
    }
    for (std::size_t c = 0; c < rx[ctx].size(); ++c) {
      if (rx_total > 0) {
        out.rx_share[ctx][c] = static_cast<double>(rx[ctx][c]) / rx_total;
      }
      if (tx_total > 0) {
        out.tx_share[ctx][c] = static_cast<double>(tx[ctx][c]) / tx_total;
      }
    }
  }
  return out;
}

[[nodiscard]] inline ScanAvailability scan_availability(const Dataset& ds) {
  ScanAvailability out;
  for (const Sample& s : ds.samples) {
    if (s.wifi_state != WifiState::OnUnassociated) continue;
    if (ds.devices[value(s.device)].os != Os::Android) continue;
    out.all_24.push_back(s.scan_pub24_all);
    out.strong_24.push_back(s.scan_pub24_strong);
    out.all_5.push_back(s.scan_pub5_all);
    out.strong_5.push_back(s.scan_pub5_strong);
  }
  return out;
}

[[nodiscard]] inline BatteryAnalysis battery_analysis(const Dataset& ds) {
  BatteryAnalysis out;
  std::uint64_t sum = 0, off_sum = 0, on_sum = 0;
  std::size_t low = 0, off_n = 0, on_n = 0;
  for (const Sample& s : ds.samples) {
    out.mean_level.add(ds.calendar, s.bin, s.battery_pct, 1.0);
    sum += s.battery_pct;
    low += s.battery_pct < 20;
    if (s.wifi_state == WifiState::Off) {
      off_sum += s.battery_pct;
      ++off_n;
    } else {
      on_sum += s.battery_pct;
      ++on_n;
    }
  }
  const std::size_t n = ds.samples.size();
  if (n > 0) {
    out.mean = static_cast<double>(sum) / static_cast<double>(n);
    out.low_share = static_cast<double>(low) / static_cast<double>(n);
  }
  if (off_n > 0) {
    out.mean_wifi_off =
        static_cast<double>(off_sum) / static_cast<double>(off_n);
  }
  if (on_n > 0) {
    out.mean_wifi_on = static_cast<double>(on_sum) / static_cast<double>(on_n);
  }
  return out;
}

}  // namespace tokyonet::analysis::serial
