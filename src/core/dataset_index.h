// Shared dataset acceleration index: one pass to index, every kernel
// parallel.
//
// A DatasetIndex is built once per Dataset, by the one validating sweep
// of build(): every producer — the simulator and the snapshot, shard,
// CSV and ingest loaders — reaches it through
// Dataset::validate_and_index(). It is the analysis layer's only view
// of the samples, and gives every kernel three things the AoS sample
// array cannot:
//
//  1. Contiguous ranges — per-device sample ranges, per-(device, day)
//     sample ranges and per-device app-traffic ranges — so kernels can
//     parallel_map over devices and reduce the per-device partials in a
//     fixed (device) order, which keeps results byte-identical at any
//     thread count (DESIGN.md §5c/§5f).
//
//  2. SoA Column<T> projections of the hot Sample fields (time bin,
//     cell/wifi rx/tx deltas, associated AP, interface state and
//     tethering/app-count flags). A scan that needs two fields reads a
//     few cache-dense bytes per sample instead of striding the full
//     48-byte struct.
//
//  3. A per-bin hour-of-week lookup table (Saturday-based, matching
//     analysis::WeeklyProfile) so profile kernels replace per-sample
//     calendar arithmetic with one array read.
//
// The index stores copies of the projected fields; it never aliases the
// sample array, so a Dataset loaded from an mmapped snapshot keeps its
// zero-copy columns while the index remains valid.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/clock.h"
#include "core/column.h"
#include "core/records.h"
#include "core/types.h"

namespace tokyonet::core {

class DatasetIndex {
 public:
  /// Builds the index for `ds`. Returns nullptr — instead of silently
  /// building a wrong index — when a sample breaks the campaign
  /// contract: the projection sweep calls check_sample() and the
  /// per-device walk applies AppLayout (core/records.h), the rules
  /// Dataset::validate() applies, so Dataset::validate_and_index() gets
  /// its per-sample validation from this one build.
  [[nodiscard]] static std::shared_ptr<const DatasetIndex> build(
      const Dataset& ds);

  [[nodiscard]] std::size_t num_samples() const noexcept {
    return bin_.size();
  }
  [[nodiscard]] std::size_t num_devices() const noexcept {
    return device_offset_.size() - 1;
  }
  [[nodiscard]] int num_days() const noexcept { return num_days_; }

  /// True when every device has exactly one sample per campaign bin
  /// (bin j at device_begin(d) + j). The simulator always emits dense
  /// campaigns; kernels use this to replace per-sample bin arithmetic
  /// with fixed-stride runs (kBinsPerHour consecutive samples per hour).
  [[nodiscard]] bool dense() const noexcept { return dense_; }

  // --- Contiguous ranges -------------------------------------------------

  /// Samples of device `d` occupy [device_begin(d), device_end(d)).
  [[nodiscard]] std::size_t device_begin(std::size_t d) const noexcept {
    return device_offset_[d];
  }
  [[nodiscard]] std::size_t device_end(std::size_t d) const noexcept {
    return device_offset_[d + 1];
  }

  /// Samples of device `d` on campaign day `day` occupy
  /// [day_begin(d, day), day_begin(d, day + 1)); day_begin(d, num_days)
  /// equals device_end(d).
  [[nodiscard]] std::size_t day_begin(std::size_t d, int day) const noexcept {
    return day_offset_[d * (static_cast<std::size_t>(num_days_) + 1) +
                       static_cast<std::size_t>(day)];
  }

  /// Device `d`'s per-application records occupy
  /// [device_app_begin(d), device_app_end(d)) of Dataset::app_traffic
  /// (an empty range for devices with no per-app breakdown). By the
  /// AppLayout rule its app-bearing samples take them in order, so a
  /// kernel walks them with a cursor that advances by app_count().
  [[nodiscard]] std::size_t device_app_begin(std::size_t d) const noexcept {
    return app_range_[2 * d];
  }
  [[nodiscard]] std::size_t device_app_end(std::size_t d) const noexcept {
    return app_range_[2 * d + 1];
  }

  // --- SoA projections (index-aligned with Dataset::samples) -------------

  [[nodiscard]] std::span<const TimeBin> bin() const noexcept {
    return bin_.span();
  }
  [[nodiscard]] std::span<const std::uint32_t> cell_rx() const noexcept {
    return cell_rx_.span();
  }
  [[nodiscard]] std::span<const std::uint32_t> cell_tx() const noexcept {
    return cell_tx_.span();
  }
  [[nodiscard]] std::span<const std::uint32_t> wifi_rx() const noexcept {
    return wifi_rx_.span();
  }
  [[nodiscard]] std::span<const std::uint32_t> wifi_tx() const noexcept {
    return wifi_tx_.span();
  }
  /// value(Sample::ap): value(kNoAp) when not associated.
  [[nodiscard]] std::span<const std::uint32_t> ap() const noexcept {
    return ap_.span();
  }
  [[nodiscard]] std::span<const WifiState> wifi_state() const noexcept {
    return wifi_state_.span();
  }
  [[nodiscard]] std::span<const CellTech> tech() const noexcept {
    return tech_.span();
  }
  [[nodiscard]] std::span<const std::uint8_t> battery_pct() const noexcept {
    return battery_.span();
  }
  [[nodiscard]] std::span<const std::int8_t> rssi_dbm() const noexcept {
    return rssi_.span();
  }
  [[nodiscard]] std::span<const std::uint16_t> geo_cell() const noexcept {
    return geo_.span();
  }
  /// Sample::app_count (0 for idle bins / iOS).
  [[nodiscard]] std::span<const std::uint8_t> app_count() const noexcept {
    return app_count_.span();
  }
  [[nodiscard]] std::span<const std::uint8_t> scan_pub24_all() const noexcept {
    return scan24_all_.span();
  }
  [[nodiscard]] std::span<const std::uint8_t> scan_pub24_strong()
      const noexcept {
    return scan24_strong_.span();
  }
  [[nodiscard]] std::span<const std::uint8_t> scan_pub5_all() const noexcept {
    return scan5_all_.span();
  }
  [[nodiscard]] std::span<const std::uint8_t> scan_pub5_strong()
      const noexcept {
    return scan5_strong_.span();
  }
  [[nodiscard]] bool tethering(std::size_t i) const noexcept {
    return (flags_[i] & kFlagTethering) != 0;
  }
  [[nodiscard]] std::span<const std::uint8_t> flags() const noexcept {
    return flags_.span();
  }
  static constexpr std::uint8_t kFlagTethering = 1u << 0;

  // --- Calendar lookup tables --------------------------------------------

  /// WeeklyProfile::hour_of_week(cal, bin), precomputed per campaign bin.
  [[nodiscard]] std::span<const std::uint16_t> hour_of_week_table()
      const noexcept {
    return {hour_of_week_.data(), hour_of_week_.size()};
  }

 private:
  /// build()'s cursors into the projected columns (dataset_index.cc).
  struct ColumnWriter;

  DatasetIndex() = default;

  /// Fills the per-bin hour-of-week LUT for `cal`.
  void fill_hour_of_week(const CampaignCalendar& cal);

  int num_days_ = 0;
  bool dense_ = false;
  std::vector<std::size_t> device_offset_;  // size devices + 1
  std::vector<std::size_t> day_offset_;     // devices * (num_days + 1)
  std::vector<std::size_t> app_range_;      // devices * 2 (begin, end)
  std::vector<std::uint16_t> hour_of_week_;  // size num_bins

  Column<TimeBin> bin_;
  Column<std::uint32_t> cell_rx_, cell_tx_, wifi_rx_, wifi_tx_;
  Column<std::uint32_t> ap_;
  Column<WifiState> wifi_state_;
  Column<CellTech> tech_;
  Column<std::uint8_t> battery_;
  Column<std::int8_t> rssi_;
  Column<std::uint16_t> geo_;
  Column<std::uint8_t> app_count_;
  Column<std::uint8_t> flags_;
  Column<std::uint8_t> scan24_all_, scan24_strong_, scan5_all_, scan5_strong_;
};

}  // namespace tokyonet::core
