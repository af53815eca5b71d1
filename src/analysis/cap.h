// Soft-bandwidth-cap effect (§3.8, Fig 19): detect potentially capped
// users from traffic alone and compare their next-day cellular download
// (relative to their own 3-day mean) against everyone else's.
#pragma once

#include <vector>

#include "analysis/common.h"
#include "stats/distribution.h"

namespace tokyonet::analysis {

struct CapAnalysis {
  /// Daily cellular download divided by the previous-3-day mean, per
  /// user-day, split by whether the previous 3 days exceeded the cap
  /// threshold.
  stats::Ecdf ratio_capped;
  stats::Ecdf ratio_others;
  /// Share of users that were potentially capped at least once
  /// (0.5% / 0.8% / 1.4% over the years).
  double capped_user_share = 0;
  /// F_capped(0.5) - F_others(0.5): the CDF gap at half the 3-day mean
  /// (0.29 in 2014, 0.15 in 2015).
  double gap_at_half = 0;
  /// Share of capped user-days downloading less than half their 3-day
  /// mean (45% in 2014) and the same for others (30%).
  double capped_below_half = 0;
  double others_below_half = 0;
};

/// `days` carries device ids in [0, n_devices), ordered by (device, day).
[[nodiscard]] CapAnalysis analyze_cap(std::size_t n_devices,
                                      const std::vector<UserDay>& days,
                                      double threshold_mb = 1000.0);

}  // namespace tokyonet::analysis
