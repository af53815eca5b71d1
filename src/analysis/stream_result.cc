#include "analysis/stream_result.h"

#include <cstring>

#include "analysis/query/source.h"
#include "analysis/ratios.h"

namespace tokyonet::analysis {

// UserDay packs without padding (4+4 bytes then four 8-byte doubles),
// so rows can be compared with one memcmp.
static_assert(sizeof(UserDay) == 40);

StreamResult batch_stream_result(const Dataset& ds) {
  StreamResult out;

  // The daily rollup and the weekly profiles come straight from the
  // batch kernels.
  out.user_days = user_days(ds);
  const UserClassifier classes(out.user_days);
  const WifiRatios ratios = compute_wifi_ratios(query::InMemorySource(ds),
                                                out.user_days, classes);
  out.wifi_traffic = ratios.traffic_all;
  out.wifi_users = ratios.users_all;

  // Integer aggregates: one serial pass (order-independent sums).
  out.ap_observations.assign(ds.aps.size(), 0);
  for (const Sample& s : ds.samples) {
    ++out.totals.n_samples;
    out.totals.cell_rx += s.cell_rx;
    out.totals.cell_tx += s.cell_tx;
    out.totals.wifi_rx += s.wifi_rx;
    out.totals.wifi_tx += s.wifi_tx;
    if (s.tech == CellTech::Lte) out.totals.lte_rx += s.cell_rx;
    if (s.wifi_state == WifiState::Associated) ++out.totals.assoc_samples;
    if (s.tethering) ++out.totals.tether_samples;
    for (const AppTraffic& at : ds.apps_of(s)) {
      ++out.totals.n_app_records;
      out.totals.app_rx[static_cast<int>(at.category)] += at.rx_bytes;
      out.totals.app_tx[static_cast<int>(at.category)] += at.tx_bytes;
    }
    if (s.ap != kNoAp) ++out.ap_observations[value(s.ap)];
  }
  return out;
}

// --- Bit-exact comparison ----------------------------------------------

namespace {

[[nodiscard]] bool bytes_equal(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

[[nodiscard]] bool doubles_equal(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  return a.size() == b.size() &&
         bytes_equal(a.data(), b.data(), a.size() * sizeof(double));
}

}  // namespace

std::string compare_stream_results(const StreamResult& a,
                                   const StreamResult& b) {
  if (!bytes_equal(&a.totals, &b.totals, sizeof(StreamTotals))) {
    if (a.totals.n_samples != b.totals.n_samples) {
      return "totals.n_samples: " + std::to_string(a.totals.n_samples) +
             " vs " + std::to_string(b.totals.n_samples);
    }
    return "stream totals differ";
  }
  if (a.user_days.size() != b.user_days.size()) {
    return "user_days row count: " + std::to_string(a.user_days.size()) +
           " vs " + std::to_string(b.user_days.size());
  }
  if (!bytes_equal(a.user_days.data(), b.user_days.data(),
                   a.user_days.size() * sizeof(UserDay))) {
    for (std::size_t i = 0; i < a.user_days.size(); ++i) {
      if (!bytes_equal(&a.user_days[i], &b.user_days[i], sizeof(UserDay))) {
        return "user_days row " + std::to_string(i) + " (device " +
               std::to_string(value(a.user_days[i].device)) + ", day " +
               std::to_string(a.user_days[i].day) + ") differs";
      }
    }
  }
  if (!doubles_equal(a.wifi_traffic.num_series(),
                     b.wifi_traffic.num_series()) ||
      !doubles_equal(a.wifi_traffic.den_series(),
                     b.wifi_traffic.den_series())) {
    return "wifi_traffic profile differs";
  }
  if (!doubles_equal(a.wifi_users.num_series(), b.wifi_users.num_series()) ||
      !doubles_equal(a.wifi_users.den_series(), b.wifi_users.den_series())) {
    return "wifi_users profile differs";
  }
  if (a.ap_observations.size() != b.ap_observations.size()) {
    return "ap_observations size: " + std::to_string(a.ap_observations.size()) +
           " vs " + std::to_string(b.ap_observations.size());
  }
  if (!bytes_equal(a.ap_observations.data(), b.ap_observations.data(),
                   a.ap_observations.size() * sizeof(std::uint64_t))) {
    for (std::size_t i = 0; i < a.ap_observations.size(); ++i) {
      if (a.ap_observations[i] != b.ap_observations[i]) {
        return "ap_observations[" + std::to_string(i) + "]: " +
               std::to_string(a.ap_observations[i]) + " vs " +
               std::to_string(b.ap_observations[i]);
      }
    }
  }
  return "";
}

}  // namespace tokyonet::analysis
