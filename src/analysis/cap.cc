#include "analysis/cap.h"

namespace tokyonet::analysis {

CapAnalysis analyze_cap(std::size_t n_devices,
                        const std::vector<UserDay>& days,
                        double threshold_mb) {
  std::vector<double> capped, others;
  std::vector<bool> user_capped(n_devices, false);

  // `days` is ordered by (device, day); walk with a 3-day lookback.
  for (std::size_t i = 0; i < days.size(); ++i) {
    const UserDay& d = days[i];
    double window = 0;
    int have = 0;
    for (std::size_t k = 1; k <= 3 && k <= i; ++k) {
      const UserDay& p = days[i - k];
      if (p.device != d.device) break;
      if (p.day < d.day - 3) break;
      window += p.cell_rx_mb;
      ++have;
    }
    if (have < 3) continue;  // need a full lookback window
    const double mean3 = window / 3.0;
    if (mean3 <= 0) continue;
    const double ratio = d.cell_rx_mb / mean3;
    if (window > threshold_mb) {
      capped.push_back(ratio);
      user_capped[value(d.device)] = true;
    } else {
      others.push_back(ratio);
    }
  }

  CapAnalysis out;
  out.ratio_capped = stats::Ecdf(capped);
  out.ratio_others = stats::Ecdf(others);
  std::size_t n_capped_users = 0;
  for (bool b : user_capped) n_capped_users += b;
  out.capped_user_share =
      n_devices == 0
          ? 0
          : static_cast<double>(n_capped_users) / static_cast<double>(n_devices);
  out.capped_below_half = out.ratio_capped.at(0.5);
  out.others_below_half = out.ratio_others.at(0.5);
  out.gap_at_half = out.capped_below_half - out.others_below_half;
  return out;
}

}  // namespace tokyonet::analysis
