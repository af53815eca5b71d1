#include "analysis/ratios.h"

#include "analysis/query/source.h"
#include "core/parallel.h"

namespace tokyonet::analysis {
namespace {

/// Accumulates one sample into a per-device partial result; `klass` is
/// the campaign-wide (device, day) table, `base` rebases the block's
/// local device id into it.
void add_sample(WifiRatios& r, const CampaignCalendar& cal, const Sample& s,
                const std::vector<UserClass>& klass, std::size_t num_days,
                std::size_t base) {
  const double wifi = s.wifi_rx / kBytesPerMb;
  const double total = wifi + s.cell_rx / kBytesPerMb;
  const bool assoc = s.wifi_state == WifiState::Associated;
  const UserClass k = klass[(base + value(s.device)) * num_days +
                            static_cast<std::size_t>(cal.day_of(s.bin))];

  if (total > 0) r.traffic_all.add(cal, s.bin, wifi, total);
  r.users_all.add(cal, s.bin, assoc ? 1.0 : 0.0, 1.0);

  if (k == UserClass::Heavy) {
    if (total > 0) r.traffic_heavy.add(cal, s.bin, wifi, total);
    r.users_heavy.add(cal, s.bin, assoc ? 1.0 : 0.0, 1.0);
  } else if (k == UserClass::Light) {
    if (total > 0) r.traffic_light.add(cal, s.bin, wifi, total);
    r.users_light.add(cal, s.bin, assoc ? 1.0 : 0.0, 1.0);
  }
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
        return core::parallel_map(block.devices.size(), [&](std::size_t i) {
          WifiRatios p;
          for (const Sample& s : block.device_samples(block.devices[i].id)) {
            add_sample(p, block.calendar, s, klass, num_days, base);
          }
          return p;
        });
      },
      [&](std::vector<WifiRatios>&& partials, std::size_t) {
        for (const WifiRatios& p : partials) merge(r, p);
      });
  return r;
}

}  // namespace tokyonet::analysis
