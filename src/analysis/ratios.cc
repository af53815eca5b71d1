#include "analysis/ratios.h"

#include <span>

#include "analysis/query/source.h"
#include "core/dataset_index.h"
#include "core/parallel.h"

namespace tokyonet::analysis {
namespace {

/// Accumulates block-local device `d`'s samples into one partial
/// result; `klass` is the campaign-wide (device, day) table, `base`
/// rebases `d` into it.
[[nodiscard]] WifiRatios device_ratios(const Dataset& ds, std::size_t d,
                                       const std::vector<UserClass>& klass,
                                       std::size_t num_days, std::size_t base) {
  const CampaignCalendar& cal = ds.calendar;
  const core::DatasetIndex& idx = ds.index();
  const std::span<const TimeBin> bins = idx.bin();
  const std::span<const std::uint32_t> cell_rx = idx.cell_rx();
  const std::span<const std::uint32_t> wifi_rx = idx.wifi_rx();
  const std::span<const WifiState> state = idx.wifi_state();
  const UserClass* const device_klass = klass.data() + (base + d) * num_days;

  WifiRatios r;
  for (std::size_t i = idx.device_begin(d); i < idx.device_end(d); ++i) {
    const TimeBin bin = bins[i];
    const double wifi = wifi_rx[i] / kBytesPerMb;
    const double total = wifi + cell_rx[i] / kBytesPerMb;
    const bool assoc = state[i] == WifiState::Associated;
    const UserClass k = device_klass[cal.day_of(bin)];

    if (total > 0) r.traffic_all.add(cal, bin, wifi, total);
    r.users_all.add(cal, bin, assoc ? 1.0 : 0.0, 1.0);

    if (k == UserClass::Heavy) {
      if (total > 0) r.traffic_heavy.add(cal, bin, wifi, total);
      r.users_heavy.add(cal, bin, assoc ? 1.0 : 0.0, 1.0);
    } else if (k == UserClass::Light) {
      if (total > 0) r.traffic_light.add(cal, bin, wifi, total);
      r.users_light.add(cal, bin, assoc ? 1.0 : 0.0, 1.0);
    }
  }
  return r;
}

void merge(WifiRatios& into, const WifiRatios& from) {
  into.traffic_all.merge(from.traffic_all);
  into.users_all.merge(from.users_all);
  into.traffic_heavy.merge(from.traffic_heavy);
  into.traffic_light.merge(from.traffic_light);
  into.users_heavy.merge(from.users_heavy);
  into.users_light.merge(from.users_light);
}

}  // namespace

WifiRatios compute_wifi_ratios(const query::DataSource& src,
                               const std::vector<UserDay>& days,
                               const UserClassifier& classes) {
  // (device, day) -> class lookup over global device ids.
  const auto num_days = static_cast<std::size_t>(src.num_days());
  std::vector<UserClass> klass(src.n_devices() * num_days,
                               UserClass::Neither);
  for (const UserDay& d : days) {
    klass[value(d.device) * num_days + static_cast<std::size_t>(d.day)] =
        classes.classify(d);
  }

  // The sums are floating point, so their grouping is fixed: one
  // partial per device, merged into one accumulator in device order.
  // Blocks hand over their devices' partials in block-local order and
  // the fold merges them one device at a time, so the result is the
  // same at any thread count and any block partition.
  WifiRatios r;
  src.fold<std::vector<WifiRatios>>(
      [&](const Dataset& block, std::size_t base) {
        return core::parallel_map(block.devices.size(), [&](std::size_t d) {
          return device_ratios(block, d, klass, num_days, base);
        });
      },
      [&](std::vector<WifiRatios>&& partials, std::size_t) {
        for (const WifiRatios& p : partials) merge(r, p);
      });
  return r;
}

}  // namespace tokyonet::analysis
