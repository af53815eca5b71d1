// User-type analysis (§3.3.1, Fig 5): the cellular-vs-WiFi daily-volume
// heat map, the cellular-intensive / WiFi-intensive / mixed user split,
// and the share of mixed user-days above the offloading diagonal.
#pragma once

#include <vector>

#include "analysis/common.h"
#include "core/records.h"
#include "stats/distribution.h"

namespace tokyonet::analysis {

struct UserTypeStats {
  /// Per *user* over the campaign (a user is cellular-intensive when
  /// their WiFi interface moved less than `idle_mb` in total, and vice
  /// versa).
  double cellular_intensive_frac = 0;  // 35% -> 22% in the paper
  double wifi_intensive_frac = 0;      // stable ~8%
  double mixed_frac = 0;
  /// Share of mixed-user days with WiFi > cellular download (55%).
  double mixed_above_diagonal_frac = 0;
};

/// `days` carries device ids in [0, n_devices).
[[nodiscard]] UserTypeStats user_type_stats(std::size_t n_devices,
                                            const std::vector<UserDay>& days,
                                            double idle_mb = 1.0);

/// Fig 5's log-log heat map of (cellular, WiFi) daily download per
/// user-day, 10^-2..10^3 MB with the paper's axes.
[[nodiscard]] stats::LogHist2d user_day_heatmap(
    const std::vector<UserDay>& days, int bins_per_decade = 12);

}  // namespace tokyonet::analysis
