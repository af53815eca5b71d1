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

DatasetIndex::ColumnWriter::ColumnWriter(DatasetIndex& idx, std::size_t n)
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

// Every record of every column is written by the producer's set() calls
// (one per (device, bin) position).
DatasetIndex::DenseBuilder::DenseBuilder(std::size_t n_devices,
                                         const CampaignCalendar& cal)
    : idx_(new DatasetIndex()),
      cols_(*idx_, n_devices * static_cast<std::size_t>(cal.num_bins())) {
  const auto n_bins = static_cast<std::size_t>(cal.num_bins());
  const int num_days = cal.num_days();
  idx_->num_days_ = num_days;
  idx_->dense_ = n_devices > 0;

  // In a dense campaign every contiguous range is arithmetic: device d
  // owns [d * n_bins, (d + 1) * n_bins) and its day boundaries fall at
  // fixed kBinsPerDay strides, exactly where build()'s scan would put
  // them.
  idx_->device_offset_.resize(n_devices + 1);
  for (std::size_t d = 0; d <= n_devices; ++d) {
    idx_->device_offset_[d] = d * n_bins;
  }
  const auto day_stride = static_cast<std::size_t>(num_days) + 1;
  idx_->day_offset_.resize(n_devices * day_stride);
  for (std::size_t d = 0; d < n_devices; ++d) {
    std::size_t* const days = idx_->day_offset_.data() + d * day_stride;
    for (std::size_t day = 0; day < day_stride; ++day) {
      days[day] = d * n_bins + day * kBinsPerDay;
    }
  }
  idx_->app_range_.assign(n_devices * 2, 0);

  idx_->fill_hour_of_week(cal);
}

void DatasetIndex::DenseBuilder::set_app_range(std::size_t d,
                                               std::size_t begin,
                                               std::size_t end) noexcept {
  idx_->app_range_[2 * d] = begin;
  idx_->app_range_[2 * d + 1] = end;
}

std::shared_ptr<const DatasetIndex> DatasetIndex::DenseBuilder::finish()
    noexcept {
  return std::move(idx_);
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

  // One parallel chunked pass projects the SoA columns and verifies the
  // Dataset contract at the same time: every sample must reference a
  // known device, carry an in-calendar bin, reference only known APs
  // and app-traffic rows, and follow its predecessor in (device, bin)
  // order. Each chunk also checks the ordering edge to its predecessor
  // chunk, so coverage is seamless. Any violation makes build() return
  // nullptr instead of silently indexing a wrong stream. The per-sample
  // rules match Dataset::validate() exactly, so
  // Dataset::validate_and_index() needs no separate validate() sweep.
  const std::size_t n_aps = ds.aps.size();
  const std::size_t n_apps = ds.app_traffic.size();
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
          if (value(s.device) >= n_devices) return 0;
          if (std::size_t{s.bin} >= n_bins) return 0;
          if (s.ap != kNoAp && value(s.ap) >= n_aps) return 0;
          if (std::size_t{s.app_begin} + s.app_count > n_apps) return 0;
          if (i > 0) {
            const Sample& p = ss[i - 1];
            if (value(p.device) > value(s.device) ||
                (p.device == s.device && p.bin > s.bin)) {
              return 0;
            }
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
  // linear walk of each device's (already cache-dense) bin column.
  const std::size_t day_stride = static_cast<std::size_t>(num_days) + 1;
  idx->day_offset_.assign(n_devices * day_stride, 0);
  idx->app_range_.assign(n_devices * 2, 0);
  std::vector<char> device_dense(n_devices, 0);
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

    // Per-application records are spliced in device order (simulator /
    // snapshot contract), so the union of this device's sample app
    // ranges is itself contiguous.
    std::size_t ab = 0, ae = 0;
    bool any = false;
    for (std::size_t j = begin; j < end; ++j) {
      // The dense column, not the 48-byte AoS.
      if (cols.app_count[j] == 0) continue;
      const Sample& s = ss[j];
      const auto lo = std::size_t{s.app_begin};
      const std::size_t hi = lo + s.app_count;
      if (!any) {
        ab = lo;
        any = true;
      } else {
        ab = std::min(ab, lo);
      }
      ae = std::max(ae, hi);
    }
    idx->app_range_[2 * d] = ab;
    idx->app_range_[2 * d + 1] = ae;
  });
  idx->dense_ = n_devices > 0 &&
                std::find(device_dense.begin(), device_dense.end(), char{0}) ==
                    device_dense.end();

  idx->fill_hour_of_week(ds.calendar);

  return idx;
}

}  // namespace tokyonet::core
