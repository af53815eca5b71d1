// Core enumerations and strong identifier types shared by every tokyonet
// module. These mirror the fields recorded by the paper's on-device
// measurement software (IMC'15 §2): device OS, network interface and
// radio-access technology, WiFi band/state, application category, and the
// user-facing survey vocabulary (occupation, AP locations).
// Each enum a campaign file or the ingest wire carries has its range
// defined once, by the valid() next to it (the campaign contract,
// core/records.h): kernels index arrays by these enums.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace tokyonet {

/// Measurement campaign year (the paper ran three campaigns, March each
/// year, Table 1).
enum class Year : std::uint8_t { Y2013 = 0, Y2014 = 1, Y2015 = 2 };
inline constexpr int kNumYears = 3;

/// Calendar year as an integer (2013..2015).
[[nodiscard]] constexpr int year_number(Year y) noexcept {
  return 2013 + static_cast<int>(y);
}

/// All campaign years, in chronological order.
inline constexpr Year kAllYears[] = {Year::Y2013, Year::Y2014, Year::Y2015};

/// Device operating system. The paper's software behaves differently per
/// OS: Android reports per-app traffic and scan results; iOS reports only
/// the associated AP and aggregate counters (§2).
enum class Os : std::uint8_t { Android = 0, Ios = 1 };
[[nodiscard]] constexpr bool valid(Os v) noexcept { return v <= Os::Ios; }

/// Cellular radio-access technology in use during a sample.
/// `None` means the cellular interface carried no traffic in the bin.
enum class CellTech : std::uint8_t { None = 0, ThreeG = 1, Lte = 2 };
[[nodiscard]] constexpr bool valid(CellTech v) noexcept {
  return v <= CellTech::Lte;
}

/// Network interface that carried traffic.
enum class Iface : std::uint8_t { Cellular = 0, Wifi = 1 };

/// State of the WiFi interface during a 10-minute sample (§3.3.4):
///  - Off:            user explicitly disabled WiFi ("WiFi-off users"),
///  - OnUnassociated:  WiFi on but not associated ("WiFi-available users"),
///  - Associated:      associated with an AP ("WiFi users").
enum class WifiState : std::uint8_t { Off = 0, OnUnassociated = 1, Associated = 2 };
[[nodiscard]] constexpr bool valid(WifiState v) noexcept {
  return v <= WifiState::Associated;
}

/// WiFi frequency band.
enum class Band : std::uint8_t { B24GHz = 0, B5GHz = 1 };
[[nodiscard]] constexpr bool valid(Band v) noexcept { return v <= Band::B5GHz; }

/// Ground-truth access-point placement category. The analysis layer never
/// reads this directly — it infers a location class from association
/// patterns and ESSIDs (§3.4.1); tests compare the inference against it.
enum class ApPlacement : std::uint8_t {
  Home = 0,
  Public = 1,
  Office = 2,
  MobileHotspot = 3,
  OtherVenue = 4,  // shops, hotels, friends' homes, ...
};

/// Location class produced by the paper's AP classification (§3.4.1):
/// Home / Public / Other, with Office further estimated inside Other.
enum class ApClass : std::uint8_t { Home = 0, Public = 1, Other = 2 };

/// Japanese mobile carriers present in the dataset (market-share weighted
/// recruiting, §2). Names are anonymized to A/B/C as in the study.
enum class Carrier : std::uint8_t { CarrierA = 0, CarrierB = 1, CarrierC = 2 };
inline constexpr int kNumCarriers = 3;
[[nodiscard]] constexpr bool valid(Carrier v) noexcept {
  return static_cast<int>(v) < kNumCarriers;
}

/// Google Play application categories used by the paper's breakdown
/// (§3.6, Tables 6/7), plus `OsUpdate` for the iOS 8.2 event (§3.7) and
/// `Unknown` for iOS devices where per-app accounting is unavailable.
enum class AppCategory : std::uint8_t {
  Browser = 0,
  Social,
  Video,
  Communication,
  News,
  Game,
  Music,
  Travel,
  Shopping,
  Download,
  Entertainment,
  Tools,
  Productivity,  // includes online file storage (WiFi-gated sync)
  Lifestyle,
  Health,
  Business,
  Education,
  Finance,
  Photography,
  Sports,
  Weather,
  Books,
  Medical,
  Transport,
  Personalization,
  Comics,
  OsUpdate,
  Unknown,
};
inline constexpr int kNumAppCategories =
    static_cast<int>(AppCategory::Unknown) + 1;
[[nodiscard]] constexpr bool valid(AppCategory v) noexcept {
  return static_cast<int>(v) < kNumAppCategories;
}

/// Occupations from the user survey (Table 2).
enum class Occupation : std::uint8_t {
  GovernmentWorker = 0,
  OfficeWorker,
  Engineer,
  WorkerOther,
  Professional,
  SelfOwnedBusiness,
  PartTimer,
  Housewife,
  Student,
  Other,
};
inline constexpr int kNumOccupations = static_cast<int>(Occupation::Other) + 1;
[[nodiscard]] constexpr bool valid(Occupation v) noexcept {
  return static_cast<int>(v) < kNumOccupations;
}

/// Locations the post-campaign survey asks about (Tables 8/9).
enum class SurveyLocation : std::uint8_t { Home = 0, Office = 1, Public = 2 };
inline constexpr int kNumSurveyLocations = 3;

/// Answers to "did you connect to WiFi APs at <location>?" (Table 8).
enum class SurveyYesNo : std::uint8_t { Yes = 0, No = 1, NotAnswered = 2 };
[[nodiscard]] constexpr bool valid(SurveyYesNo v) noexcept {
  return v <= SurveyYesNo::NotAnswered;
}

/// Reasons for WiFi unavailability (Table 9; multiple answers allowed).
enum class SurveyReason : std::uint8_t {
  NoAvailableAps = 0,
  DifficultToSetUp,
  NoConfiguration,
  BatteryDrain,
  Failed,
  SecurityIssue,   // asked from 2014 only
  LteIsEnough,     // asked from 2014 only
  OtherReason,
};
inline constexpr int kNumSurveyReasons =
    static_cast<int>(SurveyReason::OtherReason) + 1;

/// The bool-byte rule for bools copied in raw from files and the wire
/// (Sample::tethering, DeviceInfo::recruited): the byte is 0 or 1. It
/// reads the byte, as loading a bool holding anything else is undefined.
[[nodiscard]] inline bool valid_bool_byte(const bool& b) noexcept {
  std::uint8_t v = 0;
  std::memcpy(&v, &b, 1);
  return v <= 1;
}

// --- Strong identifier types -------------------------------------------

/// Index of a device within one campaign's `Dataset::devices`.
enum class DeviceId : std::uint32_t {};
/// Index of an access point within one campaign's `Dataset::aps`.
enum class ApId : std::uint32_t {};

inline constexpr ApId kNoAp = ApId{0xFFFFFFFFu};

[[nodiscard]] constexpr std::uint32_t value(DeviceId id) noexcept {
  return static_cast<std::uint32_t>(id);
}
[[nodiscard]] constexpr std::uint32_t value(ApId id) noexcept {
  return static_cast<std::uint32_t>(id);
}

// --- Human-readable names ----------------------------------------------

[[nodiscard]] std::string_view to_string(Year y) noexcept;
[[nodiscard]] std::string_view to_string(Os os) noexcept;
[[nodiscard]] std::string_view to_string(CellTech t) noexcept;
[[nodiscard]] std::string_view to_string(Iface i) noexcept;
[[nodiscard]] std::string_view to_string(WifiState s) noexcept;
[[nodiscard]] std::string_view to_string(Band b) noexcept;
[[nodiscard]] std::string_view to_string(ApPlacement p) noexcept;
[[nodiscard]] std::string_view to_string(ApClass c) noexcept;
[[nodiscard]] std::string_view to_string(AppCategory c) noexcept;
[[nodiscard]] std::string_view to_string(Occupation o) noexcept;
[[nodiscard]] std::string_view to_string(SurveyLocation l) noexcept;
[[nodiscard]] std::string_view to_string(SurveyReason r) noexcept;

}  // namespace tokyonet
