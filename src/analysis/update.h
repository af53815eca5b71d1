// iOS software-update detection and timing analysis (§3.7, Fig 18).
//
// iOS reports no per-app traffic, so the update is detected the way the
// paper did: a burst of WiFi download consistent with the 565 MB iOS 8.2
// image appearing on an iOS device. The timing analysis then reproduces
// Fig 18's flash-crowd CDF/PDF and the home-AP-vs-none delay gap.
#pragma once

#include <span>
#include <vector>

#include "analysis/classify.h"
#include "core/records.h"

namespace tokyonet::analysis {

struct UpdateDetectOptions {
  /// Minimum WiFi download within the rolling window to call an update.
  double burst_mb = 450.0;
  /// Rolling window length in bins (1 hour = 6).
  int window_bins = 5;
  /// Minimum per-bin volume for bins counted into the burst (filters
  /// slow organic accumulation; the 565 MB image streams at
  /// ~150 MB/10 min).
  double min_bin_mb = 80.0;
  /// Earliest campaign day an update can be detected on. The release
  /// date is public knowledge (the paper pinpoints March 10th), so the
  /// detector may ignore earlier bursts.
  int min_day = 0;
};

struct UpdateDetection {
  /// Per device: first bin of the detected update burst, or -1.
  std::vector<std::int32_t> update_bin;
  int num_ios = 0;
  int num_updated = 0;
};

/// Detects update events on iOS devices.
[[nodiscard]] UpdateDetection detect_updates(
    const Dataset& ds, const UpdateDetectOptions& opt = {});

/// Fig 18 statistics.
struct UpdateTiming {
  /// Days (fractional) since the first observed update, per updated
  /// device; sorted. Separate series for devices with/without an
  /// inferred home AP.
  std::vector<double> delay_days_all;
  std::vector<double> delay_days_home;
  std::vector<double> delay_days_no_home;

  double updated_share_all = 0;      // of iOS devices (58% in the paper)
  double updated_share_no_home = 0;  // 14% in the paper
  double first_day_share = 0;        // updated on day 0 (10%)
  double median_delay_home = 0;      // days
  double median_delay_no_home = 0;   // days (gap ~3.5 days)
};

/// Needs the device table only (AnalysisContext::devices()): the timing
/// analysis never touches samples.
[[nodiscard]] UpdateTiming analyze_update_timing(
    std::span<const DeviceInfo> devices, const UpdateDetection& detection,
    const ApClassification& classification);

}  // namespace tokyonet::analysis
