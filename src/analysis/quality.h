// WiFi quality analyses (§3.4.4-§3.4.5): RSSI distributions of
// associated home/public networks (Fig 15) and 2.4 GHz channel usage
// (Fig 16); plus the geolocated AP-density maps of Fig 10.
#pragma once

#include <vector>

#include "analysis/classify.h"
#include "analysis/query/fwd.h"
#include "core/records.h"
#include "stats/distribution.h"

namespace tokyonet::analysis {

/// Fig 15: per associated 2.4 GHz AP, the maximum RSSI observed; PDFs by
/// class.
struct RssiAnalysis {
  std::vector<double> home_max_rssi;    // one entry per associated home AP
  std::vector<double> public_max_rssi;
  double home_mean = 0;                 // ~ -54 dBm in the paper
  double public_mean = 0;               // ~ -60 dBm
  double home_below_70_share = 0;       // ~3%
  double public_below_70_share = 0;     // ~12%

  [[nodiscard]] stats::Histogram home_pdf() const;
  [[nodiscard]] stats::Histogram public_pdf() const;
};

[[nodiscard]] RssiAnalysis rssi_analysis(const query::DataSource& src,
                                         const ApClassification& cls);

/// Fig 16: association-weighted 2.4 GHz channel PMFs for home and public
/// APs (Android devices report channels via the associated-AP record).
struct ChannelAnalysis {
  std::array<double, 14> home_pmf{};    // index = channel (1..13)
  std::array<double, 14> public_pmf{};
};

[[nodiscard]] ChannelAnalysis channel_analysis(const query::DataSource& src,
                                               const ApClassification& cls);

/// §3.4.5: potential cross-channel interference between associated
/// 2.4 GHz APs that share a 5 km cell. Two networks on channels fewer
/// than five apart overlap in spectrum; the share of such pairs proxies
/// how badly a deployment is coordinated (public providers plan around
/// this; 2013-era home routers did not).
struct InterferenceAnalysis {
  /// Share of same-cell AP pairs with overlapping channels, per class.
  double home_conflict_share = 0;
  double public_conflict_share = 0;
  int home_pairs = 0;
  int public_pairs = 0;
};

[[nodiscard]] InterferenceAnalysis channel_interference(
    const Dataset& ds, const ApClassification& cls, int num_cells,
    int min_channel_gap = 5);

/// Fig 10: number of distinct associated APs per 5 km cell, for one AP
/// class. An AP's cell is the most common device geolocation while
/// associated with it.
struct ApDensityMap {
  std::vector<int> count_by_cell;  // indexed by GeoCell
  int cells_with_ap = 0;           // cells with >= 1 AP
  int cells_with_100 = 0;          // cells with >= 100 APs
  int max_count = 0;
};

[[nodiscard]] ApDensityMap ap_density_map(const query::DataSource& src,
                                          const ApClassification& cls,
                                          ApClass which, int num_cells);

}  // namespace tokyonet::analysis
