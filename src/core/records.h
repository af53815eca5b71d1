// Record schema for one measurement campaign.
//
// The paper's on-device software (§2) uploads, every 10 minutes: byte
// counts per network interface, per-application traffic (Android only),
// the associated WiFi AP (BSSID/ESSID) with signal strength, scan results
// for non-associated APs (Android only), cellular technology, and coarse
// (5 km) geolocation. `Sample` mirrors exactly that record; `Dataset`
// holds a whole campaign.
//
// Everything the analysis layer may read is "observable": it is
// information the real measurement software could report. Simulator
// ground truth (true AP placement, user archetypes, true capped days,
// ...) lives in `GroundTruth`, which only tests, calibration checks and
// the survey synthesizer consume.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/column.h"
#include "core/types.h"

namespace tokyonet::core {
class DatasetIndex;
}  // namespace tokyonet::core

namespace tokyonet {

/// Index of a 5 km grid cell (see geo::Grid). 0xFFFF = unknown location.
using GeoCell = std::uint16_t;
inline constexpr GeoCell kNoGeoCell = 0xFFFF;

/// Traffic attributed to one application category within one sample
/// (Android only; iOS reports a single `Unknown` aggregate, §2).
struct AppTraffic {
  AppCategory category = AppCategory::Unknown;
  /// Explicit padding, always zero: these records are serialized raw
  /// (io/snapshot.cc), so compiler-inserted padding would leak
  /// indeterminate bytes into snapshot files and break byte-level
  /// write determinism.
  std::uint8_t reserved[3] = {};
  std::uint32_t rx_bytes = 0;
  std::uint32_t tx_bytes = 0;
};

/// Static, observable description of a device in the campaign.
struct DeviceInfo {
  DeviceId id{};
  Os os = Os::Android;
  Carrier carrier = Carrier::CarrierA;
  /// True for recruited participants (who also answer the survey);
  /// false for organic app-store installs (§2).
  bool recruited = true;
  /// Explicit padding, always zero (serialized raw — see AppTraffic).
  std::uint8_t reserved = 0;
};

/// Observable identity of a WiFi access point, as seen by a device that
/// associates with it: BSSID (AP MAC), ESSID (network name), band and
/// channel. The AP's true location/placement is ground truth only.
struct ApInfo {
  std::uint64_t bssid = 0;  // 48-bit MAC in the low bits
  std::string essid;
  Band band = Band::B24GHz;
  std::uint8_t channel = 1;  // 1..13 (2.4 GHz) or 36+ (5 GHz)
};

/// One 10-minute measurement record from one device.
struct Sample {
  DeviceId device{};
  TimeBin bin = 0;
  GeoCell geo_cell = kNoGeoCell;

  // Byte counters per interface over the 10-minute window.
  std::uint32_t cell_rx = 0;
  std::uint32_t cell_tx = 0;
  std::uint32_t wifi_rx = 0;
  std::uint32_t wifi_tx = 0;

  /// Associated AP (kNoAp when not associated).
  ApId ap = kNoAp;
  /// Offset/count into Dataset::app_traffic for this sample's
  /// per-application breakdown (count 0 for idle bins and iOS devices
  /// with no traffic).
  std::uint32_t app_begin = 0;
  std::uint8_t app_count = 0;

  CellTech tech = CellTech::None;
  WifiState wifi_state = WifiState::Off;
  /// RSSI of the association in dBm (meaningless unless Associated).
  std::int8_t rssi_dbm = -127;

  /// Battery level reported with each record (§2), 1..100.
  std::uint8_t battery_pct = 100;
  /// True while the device acts as a cellular hotspot (Android reports
  /// tethering state; the paper strips tethering traffic from the main
  /// analysis, §2).
  bool tethering = false;

  // Scan summary (Android only, §2): number of *public* WiFi networks
  // detected in this window, split by band and by whether the strongest
  // beacon was "strong" (>= -70 dBm, §3.5). Saturates at 255.
  std::uint8_t scan_pub24_all = 0;
  std::uint8_t scan_pub24_strong = 0;
  std::uint8_t scan_pub5_all = 0;
  std::uint8_t scan_pub5_strong = 0;

  /// Explicit (zeroed) tail padding. Without it the struct has two
  /// unnamed padding bytes that assignment need not copy, so records
  /// that travel through the byte-exact snapshot/ingest encodings would
  /// compare unequal to their in-memory originals.
  std::uint8_t reserved_[2] = {0, 0};

  [[nodiscard]] std::uint64_t total_rx() const noexcept {
    return std::uint64_t{cell_rx} + wifi_rx;
  }
  [[nodiscard]] std::uint64_t total_tx() const noexcept {
    return std::uint64_t{cell_tx} + wifi_tx;
  }
};

/// Post-campaign survey answers from one recruited user (§4.2).
struct SurveyResponse {
  Occupation occupation = Occupation::Other;
  /// "Did you connect to WiFi APs at <location>?" (Table 8).
  SurveyYesNo connected[kNumSurveyLocations] = {
      SurveyYesNo::No, SurveyYesNo::No, SurveyYesNo::No};
  /// Bitmask of SurveyReason per location; multiple answers allowed
  /// (Table 9).
  std::uint16_t reasons[kNumSurveyLocations] = {0, 0, 0};

  [[nodiscard]] bool gave_reason(SurveyLocation loc,
                                 SurveyReason r) const noexcept {
    return (reasons[static_cast<int>(loc)] >>
            static_cast<int>(r)) & 1u;
  }
  void set_reason(SurveyLocation loc, SurveyReason r) noexcept {
    reasons[static_cast<int>(loc)] |=
        static_cast<std::uint16_t>(1u << static_cast<int>(r));
  }
};

/// Broad behavioural archetype of a simulated user (§3.3.1 Fig 5).
enum class UserArchetype : std::uint8_t {
  CellularIntensive = 0,  // never uses WiFi (no AP / no configuration)
  WifiIntensive = 1,      // avoids cellular data almost entirely
  Mixed = 2,              // uses both, offloading opportunistically
};

/// Ground truth about one device, known to the simulator but *not*
/// observable by the analysis layer.
struct DeviceTruth {
  UserArchetype archetype = UserArchetype::Mixed;
  Occupation occupation = Occupation::Other;
  bool has_home_ap = false;
  ApId home_ap = kNoAp;
  bool works_at_office = false;
  bool office_has_byod_wifi = false;  // office AP accessible to the user
  ApId office_ap = kNoAp;
  GeoCell home_cell = kNoGeoCell;
  GeoCell office_cell = kNoGeoCell;
  /// Per-day fraction of waking bins with WiFi explicitly off.
  float wifi_off_propensity = 0.f;
  /// Lognormal daily traffic demand parameters (per-user heterogeneity).
  float demand_mu = 0.f;     // log(MB)
  float demand_sigma = 1.f;  // log-scale
  /// Whether this user configured public WiFi (e.g. SIM-auth carrier APs).
  bool uses_public_wifi = false;
  /// iOS only: bin at which the device took the OS update, or -1.
  std::int32_t update_bin = -1;
  /// Days on which the cellular soft cap throttled this device.
  std::vector<std::uint8_t> capped_day;  // size = num_days, 0/1
  /// Occasionally shares the cellular link with a laptop (tethering).
  bool is_tetherer = false;
};

/// Ground truth about one AP.
struct ApTruth {
  ApPlacement placement = ApPlacement::Public;
  /// Explicit padding, always zero (serialized raw — see AppTraffic).
  std::uint8_t reserved = 0;
  GeoCell cell = kNoGeoCell;
};

/// All simulator ground truth for a campaign.
struct GroundTruth {
  std::vector<DeviceTruth> devices;  // parallel to Dataset::devices
  std::vector<ApTruth> aps;          // parallel to Dataset::aps
};

/// A full campaign: devices, the AP universe they encountered, and the
/// 10-minute sample stream, sorted by (device, bin).
///
/// The two big arrays (`samples`, `app_traffic`) are Columns: owned by
/// default, but a snapshot load (io/snapshot.h) can hand them out as
/// zero-copy views over an mmapped file.
class Dataset {
 public:
  Year year = Year::Y2015;
  CampaignCalendar calendar;

  std::vector<DeviceInfo> devices;
  std::vector<ApInfo> aps;
  core::Column<Sample> samples;
  core::Column<AppTraffic> app_traffic;
  std::vector<SurveyResponse> survey;  // parallel to devices (recruited only meaningful)
  GroundTruth truth;

  [[nodiscard]] std::size_t num_devices() const noexcept {
    return devices.size();
  }
  [[nodiscard]] int num_days() const noexcept { return calendar.num_days(); }

  /// (Re)build the shared acceleration index (core/dataset_index.h):
  /// per-device sample / app-traffic / per-day ranges plus SoA column
  /// projections of the hot sample fields. Requires `samples` sorted by
  /// (device, bin); returns false — leaving the dataset unindexed —
  /// when the stream violates that contract (unordered samples,
  /// out-of-range device or bin). Called by the simulator and by
  /// deserialization.
  bool build_index();

  /// Installs an index built externally — e.g. by the simulator's
  /// DatasetIndex::DenseBuilder, which projects the SoA columns while
  /// the campaign is generated instead of re-scanning the AoS array.
  /// The caller guarantees the index describes exactly the current
  /// `samples` array.
  void adopt_index(std::shared_ptr<const core::DatasetIndex> idx);

  /// Release-mode structural validation (the promoted form of the debug
  /// asserts in build_index()/device_samples()): checks device/AP/app
  /// references, (device, bin) ordering, bin bounds against the
  /// calendar, and ground-truth array shapes. Returns an empty string
  /// when the dataset is sound, else a description of the first
  /// problem. Snapshot loads call this before trusting a file; the
  /// sample scan runs on the core/parallel pool.
  [[nodiscard]] std::string validate() const;

  /// The non-sample half of validate(): device-id/survey/ground-truth
  /// shape checks only, O(devices + aps). Loaders that immediately run
  /// build_index() — whose projection pass verifies every per-sample
  /// rule validate() would — pair this with the index build instead of
  /// paying a second full sweep of the sample array (io/shard_store
  /// does).
  [[nodiscard]] std::string validate_frame() const;

  /// True once build_index() has succeeded and matches the current
  /// sample count.
  [[nodiscard]] bool indexed() const noexcept;

  /// The shared acceleration index. Being indexed is an invariant of
  /// every Dataset that reaches the analysis layer (the simulator,
  /// snapshot, shard and CSV loads all build or adopt one), and this is
  /// its one check: an unindexed dataset throws std::logic_error.
  [[nodiscard]] const core::DatasetIndex& index() const;

  /// All samples of one device, in time order. Requires the index.
  [[nodiscard]] std::span<const Sample> device_samples(DeviceId id) const;

  /// Per-application records of one sample.
  [[nodiscard]] std::span<const AppTraffic> apps_of(const Sample& s) const {
    return {app_traffic.data() + s.app_begin, s.app_count};
  }

 private:
  std::shared_ptr<const core::DatasetIndex> index_;
};

}  // namespace tokyonet
