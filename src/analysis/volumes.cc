#include "analysis/volumes.h"

#include <algorithm>
#include <span>

#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"
#include "stats/descriptive.h"

namespace tokyonet::analysis {

LteTrafficSums lte_traffic_sums(const Dataset& ds) {
  std::uint64_t lte = 0, total = 0;
  const core::DatasetIndex& idx = ds.index();
  // Chunked u64 sums over the SoA columns: exact and associative, so
  // the reduction matches the serial scan at any thread count.
  const std::span<const std::uint32_t> cell_rx = idx.cell_rx();
  const std::span<const CellTech> tech = idx.tech();
  const std::size_t n = cell_rx.size();
  struct Sums {
    std::uint64_t lte = 0, total = 0;
  };
  const std::vector<Sums> partials =
      query::map_chunks(n, [&](std::size_t begin, std::size_t end) {
        Sums sums;
        for (std::size_t i = begin; i < end; ++i) {
          if (cell_rx[i] == 0) continue;
          sums.total += cell_rx[i];
          if (tech[i] == CellTech::Lte) sums.lte += cell_rx[i];
        }
        return sums;
      });
  for (const Sums& p : partials) {
    lte += p.lte;
    total += p.total;
  }
  return {lte, total};
}

DatasetOverview overview(const Dataset& ds) {
  DatasetOverview o;
  for (const DeviceInfo& d : ds.devices) {
    ++o.n_total;
    (d.os == Os::Android ? o.n_android : o.n_ios) += 1;
  }
  const LteTrafficSums sums = lte_traffic_sums(ds);
  o.lte_traffic_share =
      sums.total > 0
          ? static_cast<double>(sums.lte) / static_cast<double>(sums.total)
          : 0;
  return o;
}

LteTrafficSums lte_traffic_sums(const query::DataSource& src) {
  if (const Dataset* ds = src.dataset_or_null()) return lte_traffic_sums(*ds);
  return src.reduce<LteTrafficSums>(
      [](const Dataset& block, std::size_t) { return lte_traffic_sums(block); },
      [](LteTrafficSums& acc, LteTrafficSums&& p) {
        acc.lte += p.lte;
        acc.total += p.total;
      });
}

DatasetOverview overview(const query::DataSource& src) {
  if (const Dataset* ds = src.dataset_or_null()) return overview(*ds);
  // One shard pass for both the device counts and the LTE byte sums.
  struct Part {
    int n_android = 0, n_ios = 0, n_total = 0;
    LteTrafficSums sums;
  };
  const Part p = src.reduce<Part>(
      [](const Dataset& block, std::size_t) {
        Part part;
        for (const DeviceInfo& d : block.devices) {
          ++part.n_total;
          (d.os == Os::Android ? part.n_android : part.n_ios) += 1;
        }
        part.sums = lte_traffic_sums(block);
        return part;
      },
      [](Part& acc, Part&& b) {
        acc.n_android += b.n_android;
        acc.n_ios += b.n_ios;
        acc.n_total += b.n_total;
        acc.sums.lte += b.sums.lte;
        acc.sums.total += b.sums.total;
      });
  DatasetOverview o;
  o.n_android = p.n_android;
  o.n_ios = p.n_ios;
  o.n_total = p.n_total;
  o.lte_traffic_share =
      p.sums.total > 0
          ? static_cast<double>(p.sums.lte) / static_cast<double>(p.sums.total)
          : 0;
  return o;
}

DailyVolumeStats daily_volume_stats(const std::vector<UserDay>& days,
                                    double min_total_mb) {
  std::vector<double> all, cell, wifi;
  all.reserve(days.size());
  cell.reserve(days.size());
  wifi.reserve(days.size());
  for (const UserDay& d : days) {
    const double total = d.total_rx_mb();
    if (total >= min_total_mb) all.push_back(total);
    cell.push_back(d.cell_rx_mb);
    wifi.push_back(d.wifi_rx_mb);
  }
  DailyVolumeStats s;
  s.median_all = stats::median(all);
  s.mean_all = stats::mean(all);
  s.median_cell = stats::median(cell);
  s.mean_cell = stats::mean(cell);
  s.median_wifi = stats::median(wifi);
  s.mean_wifi = stats::mean(wifi);
  return s;
}

DailyVolumeFacts daily_volume_facts(const std::vector<UserDay>& days,
                                    double cap_threshold_mb) {
  DailyVolumeFacts f;
  if (days.empty()) return f;
  std::size_t zero_cell = 0, zero_wifi = 0, over = 0;

  // 3-day rolling cellular download per device; `days` is ordered by
  // (device, day).
  for (std::size_t i = 0; i < days.size(); ++i) {
    const UserDay& d = days[i];
    zero_cell += d.cell_rx_mb + d.cell_tx_mb <= 0;
    zero_wifi += d.wifi_rx_mb + d.wifi_tx_mb <= 0;
    f.max_daily_rx_mb = std::max(f.max_daily_rx_mb, d.total_rx_mb());

    double window = d.cell_rx_mb;
    for (std::size_t k = 1; k <= 2 && k <= i; ++k) {
      const UserDay& p = days[i - k];
      if (p.device != d.device) break;
      window += p.cell_rx_mb;
    }
    over += window > cap_threshold_mb;
  }
  const auto n = static_cast<double>(days.size());
  f.zero_cell_share = static_cast<double>(zero_cell) / n;
  f.zero_wifi_share = static_cast<double>(zero_wifi) / n;
  f.over_cap_share = static_cast<double>(over) / n;
  return f;
}

DailyVolumeCdfs daily_volume_cdfs(const std::vector<UserDay>& days,
                                  double min_total_mb) {
  std::vector<double> all_rx, all_tx, cell_rx, cell_tx, wifi_rx, wifi_tx;
  for (const UserDay& d : days) {
    if (d.total_rx_mb() >= min_total_mb) {
      all_rx.push_back(d.total_rx_mb());
      all_tx.push_back(d.total_tx_mb());
    }
    cell_rx.push_back(d.cell_rx_mb);
    cell_tx.push_back(d.cell_tx_mb);
    wifi_rx.push_back(d.wifi_rx_mb);
    wifi_tx.push_back(d.wifi_tx_mb);
  }
  DailyVolumeCdfs c;
  c.all_rx = stats::Ecdf(all_rx);
  c.all_tx = stats::Ecdf(all_tx);
  c.cell_rx = stats::Ecdf(cell_rx);
  c.cell_tx = stats::Ecdf(cell_tx);
  c.wifi_rx = stats::Ecdf(wifi_rx);
  c.wifi_tx = stats::Ecdf(wifi_tx);
  return c;
}

}  // namespace tokyonet::analysis
