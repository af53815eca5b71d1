#include "core/dataset_index.h"

#include <algorithm>

#include "core/parallel.h"
#include "core/records.h"

namespace tokyonet::core {

namespace {

template <typename T>
[[nodiscard]] T* allocate(Column<T>& col, std::size_t n) {
  col.resize_for_overwrite(n);
  return col.data();
}

}  // namespace

/// Raw cursors into the projected SoA columns, so projecting a sample
/// compiles to a handful of stores. The one list of projected fields;
/// Sample::app_begin is not projected (the index keeps per-device app
/// ranges instead).
struct DatasetIndex::ColumnWriter {
  /// Sizes every column of `idx` to `n` records, skipping the zero-fill
  /// (build() writes every record or discards the index), and points the
  /// cursors at them.
  ColumnWriter(DatasetIndex& idx, std::size_t n)
      : bin(allocate(idx.bin_, n)),
        cell_rx(allocate(idx.cell_rx_, n)),
        cell_tx(allocate(idx.cell_tx_, n)),
        wifi_rx(allocate(idx.wifi_rx_, n)),
        wifi_tx(allocate(idx.wifi_tx_, n)),
        ap(allocate(idx.ap_, n)),
        wifi_state(allocate(idx.wifi_state_, n)),
        tech(allocate(idx.tech_, n)),
        battery(allocate(idx.battery_, n)),
        rssi(allocate(idx.rssi_, n)),
        geo(allocate(idx.geo_, n)),
        app_count(allocate(idx.app_count_, n)),
        flags(allocate(idx.flags_, n)),
        scan24_all(allocate(idx.scan24_all_, n)),
        scan24_strong(allocate(idx.scan24_strong_, n)),
        scan5_all(allocate(idx.scan5_all_, n)),
        scan5_strong(allocate(idx.scan5_strong_, n)) {}

  /// Projects `s` into position `i`.
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

void DatasetIndex::fill_hour_of_week(const CampaignCalendar& cal) {
  // Saturday-based, to match WeeklyProfile's axes.
  hour_of_week_.resize(static_cast<std::size_t>(cal.num_bins()));
  for (int day = 0; day < cal.num_days(); ++day) {
    const int sat_based =
        (static_cast<int>(cal.weekday_of_day(day)) + 2) % 7;
    for (int h = 0; h < 24; ++h) {
      const auto how = static_cast<std::uint16_t>(sat_based * 24 + h);
      const std::size_t base = static_cast<std::size_t>(day) * kBinsPerDay +
                               static_cast<std::size_t>(h) * kBinsPerHour;
      for (std::size_t b = 0; b < kBinsPerHour; ++b) {
        hour_of_week_[base + b] = how;
      }
    }
  }
}

std::shared_ptr<const DatasetIndex> DatasetIndex::build(const Dataset& ds) {
  const std::span<const Sample> ss = ds.samples.span();
  const std::size_t n = ss.size();
  const std::size_t n_devices = ds.devices.size();
  const std::size_t n_bins = static_cast<std::size_t>(ds.calendar.num_bins());
  const int num_days = ds.calendar.num_days();

  std::shared_ptr<DatasetIndex> idx(new DatasetIndex());
  idx->num_days_ = num_days;
  // Every record of every column is written by the projection pass
  // below (or the whole index is discarded).
  const ColumnWriter cols(*idx, n);

  // One parallel chunked pass projects the SoA columns and applies the
  // campaign contract's per-sample rule (check_sample(), the one
  // Dataset::validate() calls) at the same time. Each chunk also checks
  // the ordering edge to its predecessor chunk, so coverage is seamless.
  // Any fault makes build() return nullptr instead of silently indexing
  // a wrong stream, so Dataset::validate_and_index() needs no separate
  // validate() sweep.
  const SampleBounds bounds{n_devices, n_bins, ds.aps.size(),
                            ds.app_traffic.size()};
  constexpr std::size_t kChunk = 1 << 16;
  const std::size_t n_chunks = (n + kChunk - 1) / kChunk;
  const std::vector<char> chunk_ok =
      parallel_map(n_chunks, [&](std::size_t c) -> char {
        // A local copy keeps the cursors in registers across the stores.
        const ColumnWriter w = cols;
        const std::size_t begin = c * kChunk;
        const std::size_t end = std::min(begin + kChunk, n);
        for (std::size_t i = begin; i < end; ++i) {
          const Sample& s = ss[i];
          if (check_sample(s, i > 0 ? &ss[i - 1] : nullptr, bounds) !=
              SampleFault::None) {
            return 0;
          }
          w.set(i, s);
        }
        return 1;
      });
  if (std::find(chunk_ok.begin(), chunk_ok.end(), char{0}) != chunk_ok.end()) {
    return nullptr;
  }

  // Device boundaries: the stream is (device, bin)-sorted, so each
  // device's range starts at the partition point of its id.
  idx->device_offset_.assign(n_devices + 1, 0);
  idx->device_offset_[n_devices] = n;
  parallel_for(n_devices, [&](std::size_t d) {
    const Sample* first =
        std::partition_point(ss.data(), ss.data() + n, [&](const Sample& s) {
          return value(s.device) < d;
        });
    idx->device_offset_[d] = static_cast<std::size_t>(first - ss.data());
  });

  // Per-(device, day) boundaries and per-device app-traffic ranges, one
  // linear walk of each device's (already cache-dense) columns.
  const std::size_t day_stride = static_cast<std::size_t>(num_days) + 1;
  idx->day_offset_.assign(n_devices * day_stride, 0);
  idx->app_range_.assign(n_devices * 2, 0);
  std::vector<char> device_dense(n_devices, 0), device_apps_ok(n_devices, 0);
  parallel_for(n_devices, [&](std::size_t d) {
    const std::size_t begin = idx->device_offset_[d];
    const std::size_t end = idx->device_offset_[d + 1];
    // Density check: one sample per bin, in order.
    bool dense = end - begin == n_bins;
    for (std::size_t j = begin; dense && j < end; ++j) {
      dense = std::size_t{cols.bin[j]} == j - begin;
    }
    device_dense[d] = dense ? 1 : 0;
    std::size_t* const days = idx->day_offset_.data() + d * day_stride;
    std::size_t i = begin;
    for (int day = 0; day < num_days; ++day) {
      days[day] = i;
      const auto limit = static_cast<TimeBin>((day + 1) * kBinsPerDay);
      while (i < end && cols.bin[i] < limit) ++i;
    }
    days[num_days] = end;

    // The contract's app-layout rule: the device's app-bearing samples
    // take consecutive records, so together they form one range.
    AppLayout apps;
    bool apps_ok = true;
    for (std::size_t j = begin; apps_ok && j < end; ++j) {
      // The dense column first, not the 48-byte AoS.
      apps_ok = cols.app_count[j] == 0 || apps.add(ss[j]);
    }
    device_apps_ok[d] = apps_ok ? 1 : 0;
    idx->app_range_[2 * d] = apps.begin;
    idx->app_range_[2 * d + 1] = apps.end;
  });
  if (std::find(device_apps_ok.begin(), device_apps_ok.end(), char{0}) !=
      device_apps_ok.end()) {
    return nullptr;
  }
  idx->dense_ = n_devices > 0 &&
                std::find(device_dense.begin(), device_dense.end(), char{0}) ==
                    device_dense.end();

  idx->fill_hour_of_week(ds.calendar);

  return idx;
}

}  // namespace tokyonet::core
