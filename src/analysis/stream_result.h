// The analysis summary of an ingest stream, and its bit-exact checker.
//
// `StreamResult` gathers what the ingest path reports about a stream:
// integer totals (per-interface bytes, LTE share, per-app-category
// volumes), the per-user daily volumes (`user_days`), the class-free
// WiFi/cellular weekly ratio halves of `compute_wifi_ratios`, and
// per-AP observation counts. `batch_stream_result()` computes it with
// the batch kernels over one indexed Dataset; the ingest server answers
// `result()` by running exactly that over its committed records
// (ingest/server.h). `compare_stream_results` checks two results
// bit-for-bit, which is how replay tests, `bench_ingest` and `tokyonet
// ingest stats` verify that ingest commits every record unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/common.h"
#include "core/records.h"

namespace tokyonet::analysis {

/// Order-independent integer totals over every record seen.
struct StreamTotals {
  std::uint64_t n_samples = 0;
  std::uint64_t n_app_records = 0;
  std::uint64_t cell_rx = 0, cell_tx = 0;
  std::uint64_t wifi_rx = 0, wifi_tx = 0;
  std::uint64_t lte_rx = 0;          // cell_rx carried while tech == LTE
  std::uint64_t assoc_samples = 0;   // wifi_state == Associated
  std::uint64_t tether_samples = 0;
  std::uint64_t app_rx[kNumAppCategories] = {};
  std::uint64_t app_tx[kNumAppCategories] = {};
};

/// The analysis summary of one record stream.
struct StreamResult {
  StreamTotals totals;
  /// `user_days(ds)` (default options), ordered by (device, day).
  std::vector<UserDay> user_days;
  /// WiFi share of download per hour-of-week:
  /// `compute_wifi_ratios(...).traffic_all`.
  WeeklyProfile wifi_traffic;
  /// Share of samples associated with WiFi per hour-of-week:
  /// `compute_wifi_ratios(...).users_all`.
  WeeklyProfile wifi_users;
  /// Associated-sample count per ApId.
  std::vector<std::uint64_t> ap_observations;
};

/// The stream summary of an indexed dataset, computed with the batch
/// kernels (`user_days`, `compute_wifi_ratios`) plus one serial pass for
/// the integer aggregates.
[[nodiscard]] StreamResult batch_stream_result(const Dataset& ds);

/// Bit-exact comparison of two stream results (doubles are compared by
/// representation, not value). Returns "" when identical, else a
/// description of the first mismatch.
[[nodiscard]] std::string compare_stream_results(const StreamResult& a,
                                                 const StreamResult& b);

}  // namespace tokyonet::analysis
