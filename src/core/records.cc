#include "core/records.h"

#include <stdexcept>
#include <string>

#include "core/dataset_index.h"

namespace tokyonet {

bool Dataset::build_index() {
  index_ = core::DatasetIndex::build(*this);
  return index_ != nullptr;
}

bool Dataset::indexed() const noexcept {
  return index_ != nullptr && index_->num_samples() == samples.size();
}

const core::DatasetIndex& Dataset::index() const {
  if (!indexed()) {
    throw std::logic_error(
        "analysis kernel handed an unindexed dataset (build_index() has "
        "not succeeded for its current samples)");
  }
  return *index_;
}

std::string_view to_string(SampleFault f) noexcept {
  static constexpr std::string_view kText[] = {
      "keeps the campaign contract",
      "references a device outside the campaign",
      "has a bin outside the campaign calendar",
      "references an AP outside the campaign",
      "references app records beyond the end of the app table",
      "breaks (device, bin) ordering (one sample per device per bin)",
      "carries an out-of-range wifi_state byte",
      "carries an out-of-range tech byte",
      "carries an out-of-range tethering byte",
      "does not start its app records where its device's previous "
      "app-bearing sample ended",
  };
  return kText[static_cast<std::size_t>(f)];
}

std::string Dataset::validate_frame() const {
  const std::size_t n_devices = devices.size();
  const std::size_t n_aps = aps.size();
  const std::size_t n_days = static_cast<std::size_t>(calendar.num_days());

  bool any_recruited = false;
  for (std::size_t i = 0; i < n_devices; ++i) {
    const DeviceInfo& d = devices[i];
    if (value(d.id) != i) {
      return "device " + std::to_string(i) + " has id " +
             std::to_string(value(d.id)) + " (ids must equal their index)";
    }
    if (!valid(d.os) || !valid(d.carrier) || !valid_bool_byte(d.recruited)) {
      return "device " + std::to_string(i) +
             " carries an out-of-range os, carrier or recruited byte";
    }
    any_recruited = any_recruited || d.recruited;
  }
  for (std::size_t i = 0; i < n_aps; ++i) {
    if (!valid(aps[i].band)) {
      return "AP " + std::to_string(i) + " carries an out-of-range band";
    }
  }
  for (std::size_t i = 0; i < app_traffic.size(); ++i) {
    if (!valid(app_traffic[i].category)) {
      return "app record " + std::to_string(i) +
             " carries an out-of-range category";
    }
  }
  // One survey row per device, or none when nobody was recruited.
  if (survey.size() != n_devices && (any_recruited || !survey.empty())) {
    return "survey has " + std::to_string(survey.size()) + " rows for " +
           std::to_string(n_devices) + " devices" +
           (any_recruited ? " (recruited devices answer the survey)" : "");
  }
  for (std::size_t i = 0; i < survey.size(); ++i) {
    const SurveyResponse& r = survey[i];
    bool ok = valid(r.occupation);
    for (int l = 0; l < kNumSurveyLocations; ++l) {
      ok = ok && valid(r.connected[l]) &&
           (r.reasons[l] >> kNumSurveyReasons) == 0;
    }
    if (!ok) {
      return "survey row " + std::to_string(i) +
             " carries an out-of-range occupation, answer or reason bit";
    }
  }
  if (!truth.devices.empty() && truth.devices.size() != n_devices) {
    return "ground truth covers " + std::to_string(truth.devices.size()) +
           " of " + std::to_string(n_devices) + " devices";
  }
  if (!truth.aps.empty() && truth.aps.size() != n_aps) {
    return "ground truth covers " + std::to_string(truth.aps.size()) +
           " of " + std::to_string(n_aps) + " APs";
  }
  for (std::size_t i = 0; i < truth.devices.size(); ++i) {
    const std::size_t cd = truth.devices[i].capped_day.size();
    if (cd != 0 && cd != n_days) {
      return "device " + std::to_string(i) + " capped_day has " +
             std::to_string(cd) + " entries for a " +
             std::to_string(n_days) + "-day campaign";
    }
  }
  return {};
}

std::string Dataset::validate_and_index() {
  index_ = nullptr;
  if (std::string err = validate_frame(); !err.empty()) return err;
  if (build_index()) return {};
  std::string err = validate();
  return err.empty() ? "samples break the campaign contract" : err;
}

std::string Dataset::validate() const {
  if (std::string err = validate_frame(); !err.empty()) return err;
  const std::span<const Sample> ss = samples.span();
  const SampleBounds bounds{
      devices.size(), static_cast<std::size_t>(calendar.num_bins()),
      aps.size(), app_traffic.size()};
  AppLayout apps;
  for (std::size_t i = 0; i < ss.size(); ++i) {
    SampleFault f = check_sample(ss[i], i > 0 ? &ss[i - 1] : nullptr, bounds);
    if (i > 0 && ss[i].device != ss[i - 1].device) apps = {};
    if (f == SampleFault::None && !apps.add(ss[i])) f = SampleFault::AppLayout;
    if (f != SampleFault::None) {
      return "sample " + std::to_string(i) + " " + std::string(to_string(f));
    }
  }
  return {};
}

}  // namespace tokyonet
