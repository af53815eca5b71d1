// WiFi usage patterns (§3.4.2-§3.4.3): associated APs per user-day
// (Fig 12), the home/public/other ESSID combination breakdown (Table 5),
// association-duration CCDFs (Fig 13), and the 5 GHz AP fractions
// (Fig 14).
#pragma once

#include <array>
#include <map>
#include <vector>

#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/query/fwd.h"
#include "core/records.h"

namespace tokyonet::analysis {

/// Fig 12: distribution of the number of distinct APs (BSSIDs) a device
/// associates with in one day, for all users and per class.
struct ApsPerDay {
  /// share[k] = share of user-days with k+1 associated APs (k = 3 means
  /// "4 or more"); indexed by [class][k] where class 0=all,1=heavy,2=light.
  std::array<std::array<double, 4>, 3> share{};
};

[[nodiscard]] ApsPerDay aps_per_day(const query::DataSource& src,
                                    const std::vector<UserDay>& days,
                                    const UserClassifier& classes);

/// Table 5: breakdown of associated ESSID combinations per user-day.
/// Key: (home, public, other) distinct-ESSID counts; value: share of
/// user-days with at least one association. Combinations with 4+ total
/// ESSIDs are folded into the `four_plus` bucket.
struct HpoBreakdown {
  std::map<std::array<int, 3>, double> share;
  double four_plus = 0;
};

[[nodiscard]] HpoBreakdown hpo_breakdown(const query::DataSource& src,
                                         const ApClassification& cls);

/// Fig 13: consecutive association durations (hours) with one AP, by
/// inferred AP class.
struct AssociationDurations {
  std::vector<double> home_hours;
  std::vector<double> public_hours;
  std::vector<double> office_hours;
};

[[nodiscard]] AssociationDurations association_durations(
    const query::DataSource& src, const ApClassification& cls);

/// Fig 14: fraction of associated *unique* APs operating at 5 GHz, by
/// class (office from the Other/office estimate).
struct BandFractions {
  double home = 0;
  double office = 0;
  double publik = 0;
};

/// The band split needs only the (resident) AP universe.
[[nodiscard]] BandFractions band_fractions(const query::DataSource& src,
                                           const ApClassification& cls);

}  // namespace tokyonet::analysis
