// Public WiFi availability for WiFi-available users (§3.5, Fig 17):
// CCDFs of the number of detected public networks per device per
// 10-minute scan, and the offloadable-cellular-traffic estimate.
#pragma once

#include <vector>

#include "analysis/query/fwd.h"
#include "core/records.h"
#include "stats/distribution.h"

namespace tokyonet::analysis {

/// Scan-count series by band and strength, over samples of devices in
/// the WiFi-available state (Android; iOS reports no scans).
struct ScanAvailability {
  std::vector<double> all_24;
  std::vector<double> strong_24;
  std::vector<double> all_5;
  std::vector<double> strong_5;

  [[nodiscard]] stats::Ecdf ccdf_all_24() const { return stats::Ecdf(all_24); }
  [[nodiscard]] stats::Ecdf ccdf_strong_24() const {
    return stats::Ecdf(strong_24);
  }
  [[nodiscard]] stats::Ecdf ccdf_all_5() const { return stats::Ecdf(all_5); }
  [[nodiscard]] stats::Ecdf ccdf_strong_5() const {
    return stats::Ecdf(strong_5);
  }
};

[[nodiscard]] ScanAvailability scan_availability(const query::DataSource& src);

/// §3.5's offloading headroom estimate for WiFi-available users.
struct OffloadOpportunity {
  /// Share of WiFi-available users who regularly see >= 1 strong public
  /// network ("stable" opportunity; ~60% in the paper).
  double users_with_stable_opportunity = 0;
  /// Share of those users' daily cellular download that occurred in bins
  /// where a strong public network was in range (15-20% in the paper).
  double offloadable_cell_share = 0;
  int num_wifi_available_users = 0;
};

struct OpportunityOptions {
  /// A user counts as WiFi-available if at least this share of their
  /// samples are in the OnUnassociated state.
  double available_state_share = 0.20;
  /// "Stable" opportunity: share of unassociated bins with >= 1 strong
  /// public network.
  double stable_bin_share = 0.15;
};

[[nodiscard]] OffloadOpportunity offload_opportunity(
    const query::DataSource& src, const OpportunityOptions& opt = {});

}  // namespace tokyonet::analysis
