#include "analysis/wifistate.h"

#include <array>
#include <cstdint>
#include <span>

#include "analysis/query/scan.h"
#include "analysis/query/source.h"
#include "core/dataset_index.h"
#include "stats/simd.h"

namespace tokyonet::analysis {
namespace {

void merge(WifiStateProfiles& into, const WifiStateProfiles& from) noexcept {
  into.android_user.merge(from.android_user);
  into.android_off.merge(from.android_off);
  into.android_available.merge(from.android_available);
  into.ios_user.merge(from.ios_user);
}

// Exact integer counts behind ios_wifi_user_by_carrier(): associated
// and total sample counts per carrier for iOS devices. u64, so shard
// partials merge byte-identically.
struct CarrierCounts {
  std::array<std::uint64_t, kNumCarriers> assoc{}, total{};

  void merge(const CarrierCounts& p) noexcept {
    for (std::size_t c = 0; c < kNumCarriers; ++c) {
      assoc[c] += p.assoc[c];
      total[c] += p.total[c];
    }
  }
};

[[nodiscard]] CarrierCounts ios_wifi_user_counts(const Dataset& ds) {
  CarrierCounts out;

  const core::DatasetIndex& idx = ds.index();
  const std::span<const WifiState> state = idx.wifi_state();
  const auto* state_u8 = reinterpret_cast<const std::uint8_t*>(state.data());
  const std::size_t n_devices = ds.devices.size();
  const std::vector<CarrierCounts> partials = query::map_device_blocks(
      n_devices, [&](std::size_t d0, std::size_t d1) {
        CarrierCounts counts;
        for (std::size_t d = d0; d < d1; ++d) {
          const DeviceInfo& dev = ds.devices[d];
          if (dev.os != Os::Ios) continue;
          const auto c = static_cast<std::size_t>(dev.carrier);
          const std::size_t begin = idx.device_begin(d);
          const std::size_t end = idx.device_end(d);
          counts.total[c] += end - begin;
          counts.assoc[c] += stats::simd::count_eq_u8(
              state_u8 + begin, end - begin,
              static_cast<std::uint8_t>(WifiState::Associated));
        }
        return counts;
      });
  for (const CarrierCounts& p : partials) out.merge(p);
  return out;
}

[[nodiscard]] std::array<double, kNumCarriers> carrier_ratios(
    const CarrierCounts& counts) {
  std::array<double, kNumCarriers> out{};
  for (std::size_t c = 0; c < kNumCarriers; ++c) {
    if (counts.total[c] > 0) {
      out[c] = static_cast<double>(counts.assoc[c]) /
               static_cast<double>(counts.total[c]);
    }
  }
  return out;
}

}  // namespace

WifiStateProfiles compute_wifi_states(const Dataset& ds) {
  const core::DatasetIndex& idx = ds.index();
  // Branch-free counting pass: per block, one (hour-of-week, state)
  // counter bump per sample, then a single profile conversion per block.
  // The per-sample adds of the reference are 0/1 increments, so the
  // count-converted sums are the same exact integers in doubles: the
  // result is byte-identical to the serial reference at any thread
  // count and any device grouping.
  const std::span<const TimeBin> bin = idx.bin();
  const std::span<const WifiState> state = idx.wifi_state();
  const std::span<const std::uint16_t> how = idx.hour_of_week_table();
  const std::size_t n_devices = ds.devices.size();
  // Slot layout: 4 counters per hour-of-week, indexed by the WifiState
  // value (0 = Off, 1 = OnUnassociated, 2 = Associated; slot 3 unused).
  constexpr std::size_t kSlots =
      static_cast<std::size_t>(WeeklyProfile::kHours) * 4;
  const std::vector<WifiStateProfiles> partials = query::map_device_blocks(
      n_devices, [&](std::size_t d0, std::size_t d1) {
        std::array<std::uint32_t, kSlots> android{};
        std::array<std::uint32_t, kSlots> ios{};
        for (std::size_t d = d0; d < d1; ++d) {
          std::uint32_t* const cnt =
              (ds.devices[d].os == Os::Android ? android : ios).data();
          const std::size_t end = idx.device_end(d);
          for (std::size_t i = idx.device_begin(d); i < end; ++i) {
            ++cnt[(std::size_t{how[bin[i]]} << 2) |
                  static_cast<std::size_t>(state[i])];
          }
        }
        WifiStateProfiles p;
        for (int h = 0; h < WeeklyProfile::kHours; ++h) {
          const std::size_t s = static_cast<std::size_t>(h) << 2;
          const std::uint32_t a_off = android[s + 0];
          const std::uint32_t a_un = android[s + 1];
          const std::uint32_t a_as = android[s + 2];
          const std::uint32_t a_tot = a_off + a_un + a_as;
          if (a_tot > 0) {
            p.android_user.add_hour(h, a_as, a_tot);
            p.android_off.add_hour(h, a_off, a_tot);
            p.android_available.add_hour(h, a_un, a_tot);
          }
          const std::uint32_t i_as = ios[s + 2];
          const std::uint32_t i_tot = ios[s + 0] + ios[s + 1] + i_as;
          if (i_tot > 0) p.ios_user.add_hour(h, i_as, i_tot);
        }
        return p;
      });

  WifiStateProfiles p;
  for (const WifiStateProfiles& partial : partials) merge(p, partial);
  return p;
}

WifiStateProfiles compute_wifi_states(const query::DataSource& src) {
  if (const Dataset* ds = src.dataset_or_null()) {
    return compute_wifi_states(*ds);
  }
  // WeeklyProfile sums are exact integer counts in doubles, so merging
  // per-shard profiles in shard order matches the in-memory block merge.
  WifiStateProfiles out;
  src.fold<WifiStateProfiles>(
      [](const Dataset& block, std::size_t) {
        return compute_wifi_states(block);
      },
      [&](WifiStateProfiles&& p, std::size_t) { merge(out, p); });
  return out;
}

std::array<double, kNumCarriers> ios_wifi_user_by_carrier(const Dataset& ds) {
  return carrier_ratios(ios_wifi_user_counts(ds));
}

std::array<double, kNumCarriers> ios_wifi_user_by_carrier(
    const query::DataSource& src) {
  if (const Dataset* ds = src.dataset_or_null()) {
    return ios_wifi_user_by_carrier(*ds);
  }
  return carrier_ratios(src.reduce<CarrierCounts>(
      [](const Dataset& block, std::size_t) {
        return ios_wifi_user_counts(block);
      },
      [](CarrierCounts& acc, CarrierCounts&& p) { acc.merge(p); }));
}

}  // namespace tokyonet::analysis
