#include "analysis/ratios.h"

#include "core/parallel.h"

namespace tokyonet::analysis {
namespace {

/// Accumulates one sample into a (possibly per-device partial) result.
void add_sample(WifiRatios& r, const CampaignCalendar& cal, const Sample& s,
                const std::vector<UserClass>& klass, std::size_t num_days) {
  const double wifi = s.wifi_rx / kBytesPerMb;
  const double total = wifi + s.cell_rx / kBytesPerMb;
  const bool assoc = s.wifi_state == WifiState::Associated;
  const UserClass k = klass[value(s.device) * num_days +
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

WifiRatios compute_wifi_ratios(const Dataset& ds,
                               const std::vector<UserDay>& days,
                               const UserClassifier& classes) {
  // (device, day) -> class lookup.
  const auto num_days = static_cast<std::size_t>(ds.num_days());
  std::vector<UserClass> klass(ds.devices.size() * num_days,
                               UserClass::Neither);
  for (const UserDay& d : days) {
    klass[value(d.device) * num_days + static_cast<std::size_t>(d.day)] =
        classes.classify(d);
  }

  const CampaignCalendar& cal = ds.calendar;
  // One partial result per device, reduced in device order: the sums
  // are grouped per device rather than interleaved, but the grouping is
  // fixed, so the result is identical at any thread count.
  const std::vector<WifiRatios> partials =
      core::parallel_map(ds.devices.size(), [&](std::size_t i) {
        WifiRatios r;
        for (const Sample& s : ds.device_samples(ds.devices[i].id)) {
          add_sample(r, cal, s, klass, num_days);
        }
        return r;
      });

  WifiRatios r;
  for (const WifiRatios& partial : partials) merge(r, partial);
  return r;
}

}  // namespace tokyonet::analysis
