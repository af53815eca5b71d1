// Aggregated traffic time series (Fig 2) and per-location WiFi traffic
// series (Fig 11), in Mbps per campaign hour.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/classify.h"
#include "analysis/query/fwd.h"
#include "analysis/volumes.h"
#include "core/records.h"

namespace tokyonet::analysis {

/// §3.1: cellular traffic is smaller on weekends, WiFi the opposite.
struct WeekSplit {
  double weekday_mbps = 0;  // mean rate over weekday hours
  double weekend_mbps = 0;
};

/// Mbps per one-hour bin across the campaign.
struct HourlySeries {
  std::vector<double> mbps;  // size = num_days * 24

  [[nodiscard]] double total_mb() const noexcept {
    double sum = 0;
    for (double v : mbps) sum += v;
    return sum * 3600.0 / 8.0;  // Mbps-hours back to MB
  }

  /// Mean weekday vs weekend rate over the campaign's days.
  [[nodiscard]] WeekSplit week_split(const CampaignCalendar& cal) const;
};

/// Which traffic stream to aggregate.
enum class Stream : std::uint8_t {
  CellRx,
  CellTx,
  WifiRx,
  WifiTx,
};

/// Fig 2: one aggregated series per stream.
[[nodiscard]] HourlySeries aggregate_series(const query::DataSource& src,
                                            Stream stream);

/// Every per-stream hour-sum vector plus the LTE byte sums, from one
/// fused pass over the traffic columns. Byte-identical to four
/// aggregate_series() calls and overview()'s LTE sums — all
/// accumulators are exact u64 sums, so fusing the loops changes only
/// the order of associative additions — at roughly a quarter of the
/// column traffic.
struct AllStreamSums {
  /// Indexed by Stream (CellRx, CellTx, WifiRx, WifiTx).
  std::vector<std::uint64_t> hour_sums[4];
  LteTrafficSums lte;

  /// The Mbps series aggregate_series() returns for `stream`.
  [[nodiscard]] HourlySeries series(Stream stream) const;
};

[[nodiscard]] AllStreamSums aggregate_all_streams(const query::DataSource& src);

/// Fig 11: WiFi traffic restricted to APs of one inferred class
/// (office = ApClass::Other with the office flag).
struct LocationFilter {
  ApClass ap_class = ApClass::Home;
  bool office_only = false;  // only meaningful with ApClass::Other
};

[[nodiscard]] HourlySeries location_series(const query::DataSource& src,
                                           const ApClassification& cls,
                                           LocationFilter filter,
                                           bool rx);

/// §3.1's weekday/weekend split of one stream.
[[nodiscard]] WeekSplit weekday_weekend_split(const query::DataSource& src,
                                              Stream stream);

/// Share summary used in §3.4.1: home / public / office share of total
/// WiFi volume (95% / ~4% in the paper).
struct WifiLocationShares {
  double home = 0;
  double publik = 0;
  double office = 0;
  double other = 0;  // non-office remainder of Other
};

[[nodiscard]] WifiLocationShares wifi_location_shares(
    const query::DataSource& src, const ApClassification& cls);

}  // namespace tokyonet::analysis
