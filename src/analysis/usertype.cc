#include "analysis/usertype.h"

namespace tokyonet::analysis {

UserTypeStats user_type_stats(std::size_t n_devices,
                              const std::vector<UserDay>& days,
                              double idle_mb) {
  std::vector<double> cell_total(n_devices, 0.0);
  std::vector<double> wifi_total(n_devices, 0.0);

  for (const UserDay& d : days) {
    cell_total[value(d.device)] += d.cell_rx_mb + d.cell_tx_mb;
    wifi_total[value(d.device)] += d.wifi_rx_mb + d.wifi_tx_mb;
  }

  std::size_t cell_intensive = 0, wifi_intensive = 0, mixed = 0, active = 0;
  std::vector<bool> is_mixed(n_devices, false);
  for (std::size_t i = 0; i < n_devices; ++i) {
    const bool cell_active = cell_total[i] > idle_mb;
    const bool wifi_active = wifi_total[i] > idle_mb;
    if (!cell_active && !wifi_active) continue;
    ++active;
    if (cell_active && !wifi_active) {
      ++cell_intensive;
    } else if (wifi_active && !cell_active) {
      ++wifi_intensive;
    } else {
      ++mixed;
      is_mixed[i] = true;
    }
  }

  std::size_t mixed_days = 0, mixed_above = 0;
  for (const UserDay& d : days) {
    if (!is_mixed[value(d.device)]) continue;
    if (d.cell_rx_mb + d.wifi_rx_mb <= 0) continue;
    ++mixed_days;
    mixed_above += d.wifi_rx_mb > d.cell_rx_mb;
  }

  UserTypeStats s;
  if (active > 0) {
    const auto n = static_cast<double>(active);
    s.cellular_intensive_frac = static_cast<double>(cell_intensive) / n;
    s.wifi_intensive_frac = static_cast<double>(wifi_intensive) / n;
    s.mixed_frac = static_cast<double>(mixed) / n;
  }
  if (mixed_days > 0) {
    s.mixed_above_diagonal_frac = static_cast<double>(mixed_above) /
                                  static_cast<double>(mixed_days);
  }
  return s;
}

stats::LogHist2d user_day_heatmap(const std::vector<UserDay>& days,
                                  int bins_per_decade) {
  stats::LogHist2d h(-2.0, 3.0, bins_per_decade);
  for (const UserDay& d : days) {
    if (d.cell_rx_mb <= 0 && d.wifi_rx_mb <= 0) continue;
    h.add(d.cell_rx_mb, d.wifi_rx_mb);
  }
  return h;
}

}  // namespace tokyonet::analysis
