// Shared dataset acceleration index: one pass to index, every kernel
// parallel.
//
// A DatasetIndex is built once per Dataset (by Dataset::build_index())
// and gives every analysis kernel three things the AoS sample array
// cannot:
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
  /// contract: the projection sweep calls check_sample()
  /// (core/records.h), the rule Dataset::validate() applies, so
  /// Dataset::validate_and_index() gets its per-sample validation from
  /// this one sweep.
  [[nodiscard]] static std::shared_ptr<const DatasetIndex> build(
      const Dataset& ds);

 private:
  /// Raw cursors into the projected SoA columns, so projecting a sample
  /// compiles to a handful of stores. The one list of projected fields:
  /// DenseBuilder::set() and build() both write through set().
  struct ColumnWriter {
    /// Sizes every column of `idx` to `n` records, skipping the
    /// zero-fill (the producer writes every record), and points the
    /// cursors at them.
    ColumnWriter(DatasetIndex& idx, std::size_t n);

    /// Projects `s` into position `i`. Sample::app_begin is not
    /// projected, so producers may rebase it after emission (the
    /// simulator's splice does).
    void set(std::size_t i, const Sample& s) const noexcept {
      bin[i] = s.bin;
      cell_rx[i] = s.cell_rx;
      cell_tx[i] = s.cell_tx;
      wifi_rx[i] = s.wifi_rx;
      wifi_tx[i] = s.wifi_tx;
      ap[i] = value(s.ap);
      wifi_state[i] = s.wifi_state;
      tech[i] = s.tech;
      battery[i] = s.battery_pct;
      rssi[i] = s.rssi_dbm;
      geo[i] = s.geo_cell;
      app_count[i] = s.app_count;
      flags[i] = static_cast<std::uint8_t>(s.tethering ? kFlagTethering : 0);
      scan24_all[i] = s.scan_pub24_all;
      scan24_strong[i] = s.scan_pub24_strong;
      scan5_all[i] = s.scan_pub5_all;
      scan5_strong[i] = s.scan_pub5_strong;
    }

    TimeBin* bin;
    std::uint32_t *cell_rx, *cell_tx, *wifi_rx, *wifi_tx, *ap;
    WifiState* wifi_state;
    CellTech* tech;
    std::uint8_t* battery;
    std::int8_t* rssi;
    std::uint16_t* geo;
    std::uint8_t *app_count, *flags;
    std::uint8_t *scan24_all, *scan24_strong, *scan5_all, *scan5_strong;
  };

 public:
  /// Zero-validation builder for producers whose sample stream is dense
  /// by construction — exactly one sample per (device, bin), emitted in
  /// (device, bin) order (the simulator's contract). The producer
  /// projects each finished Sample into the SoA columns as it emits it
  /// (set()), replacing build()'s separate validation + projection pass
  /// — a second memory-bound sweep over the 48-byte AoS array — with
  /// stores that overlap generation; every contiguous range is pure
  /// arithmetic in a dense campaign, and the resulting index is
  /// value-identical to what build() would produce for the same stream.
  /// Parallel producers may call set() concurrently on disjoint sample
  /// positions.
  class DenseBuilder {
   public:
    DenseBuilder(std::size_t n_devices, const CampaignCalendar& cal);

    /// Projects `s`, the sample at global position `i`
    /// (device * num_bins + bin); see ColumnWriter::set().
    void set(std::size_t i, const Sample& s) const noexcept {
      cols_.set(i, s);
    }

    /// Records device `d`'s contiguous slice of Dataset::app_traffic
    /// (leave unset for devices with no per-app records).
    void set_app_range(std::size_t d, std::size_t begin,
                       std::size_t end) noexcept;

    /// Finalizes and returns the index; the builder is empty afterwards.
    [[nodiscard]] std::shared_ptr<const DatasetIndex> finish() noexcept;

   private:
    std::shared_ptr<DatasetIndex> idx_;
    ColumnWriter cols_;
  };

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
  /// (an empty range for devices with no per-app breakdown).
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
  [[nodiscard]] int hour_of_week(TimeBin bin) const noexcept {
    return hour_of_week_[bin];
  }
  [[nodiscard]] std::span<const std::uint16_t> hour_of_week_table()
      const noexcept {
    return {hour_of_week_.data(), hour_of_week_.size()};
  }

 private:
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
