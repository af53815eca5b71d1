// Application-category breakdown (§3.6, Tables 6/7): traffic share per
// Google-Play category, split by network type and location context
// (cellular at home / cellular elsewhere / WiFi at home / public WiFi).
// Android only — iOS reports no per-app traffic (§2).
#pragma once

#include <array>
#include <vector>

#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

/// The four contexts of Tables 6/7.
enum class AppContext : std::uint8_t {
  CellHome = 0,
  CellOther = 1,
  WifiHome = 2,
  WifiPublic = 3,
};
inline constexpr int kNumAppContexts = 4;

[[nodiscard]] std::string_view to_string(AppContext c) noexcept;

struct AppBreakdown {
  /// share[context][category], normalized per context.
  using Shares =
      std::array<std::array<double, kNumAppCategories>, kNumAppContexts>;
  Shares rx_share{};
  Shares tx_share{};

  struct Entry {
    AppCategory category;
    double share;
  };
  /// Top-n categories of one context, ranked by RX or TX share.
  [[nodiscard]] std::vector<Entry> top(AppContext context, bool rx,
                                       int n = 5) const;
};

/// Options: restrict to light users (the paper's §3.6 closing analysis).
struct AppBreakdownOptions {
  const std::vector<UserDay>* days = nullptr;       // needed when filtering
  const UserClassifier* classes = nullptr;          // needed when filtering
  bool light_users_only = false;
};

/// Computes Tables 6/7. Cellular traffic is located via the device's
/// inferred nighttime cell (`infer_home_cells`); WiFi via the AP class.
[[nodiscard]] AppBreakdown app_breakdown(const query::DataSource& src,
                                         const ApClassification& cls,
                                         const std::vector<GeoCell>& home_cells,
                                         const AppBreakdownOptions& opt = {});

}  // namespace tokyonet::analysis
