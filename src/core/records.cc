#include "core/records.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "core/dataset_index.h"
#include "core/parallel.h"

namespace tokyonet {

bool Dataset::build_index() {
  index_ = core::DatasetIndex::build(*this);
  return index_ != nullptr;
}

void Dataset::adopt_index(std::shared_ptr<const core::DatasetIndex> idx) {
  assert(idx == nullptr || idx->num_samples() == samples.size());
  index_ = std::move(idx);
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

std::span<const Sample> Dataset::device_samples(DeviceId id) const {
  const core::DatasetIndex& idx = index();
  const std::size_t d = value(id);
  assert(d < devices.size());
  return {samples.data() + idx.device_begin(d),
          idx.device_end(d) - idx.device_begin(d)};
}

std::string Dataset::validate_frame() const {
  const std::size_t n_devices = devices.size();
  const std::size_t n_aps = aps.size();
  const std::size_t n_days = static_cast<std::size_t>(calendar.num_days());

  for (std::size_t i = 0; i < n_devices; ++i) {
    if (value(devices[i].id) != i) {
      return "device " + std::to_string(i) + " has id " +
             std::to_string(value(devices[i].id)) +
             " (ids must equal their index)";
    }
  }
  if (!survey.empty() && survey.size() != n_devices) {
    return "survey has " + std::to_string(survey.size()) +
           " rows for " + std::to_string(n_devices) + " devices";
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
  return err.empty() ? "samples not (device, bin)-ordered" : err;
}

std::string Dataset::validate() const {
  if (std::string err = validate_frame(); !err.empty()) return err;
  const std::size_t n_devices = devices.size();
  const std::size_t n_aps = aps.size();
  const std::size_t n_apps = app_traffic.size();

  // The sample scan dominates (millions of rows at scale); split it into
  // chunks checked in parallel. Each chunk also checks the ordering edge
  // to its predecessor, so coverage is seamless. The first failing chunk
  // (lowest index) wins, keeping the reported error deterministic.
  const std::span<const Sample> ss = samples.span();
  const std::size_t n_bins = static_cast<std::size_t>(calendar.num_bins());
  constexpr std::size_t kChunk = 1 << 16;
  const std::size_t n_chunks = (ss.size() + kChunk - 1) / kChunk;
  const std::vector<std::string> chunk_errors =
      core::parallel_map(n_chunks, [&](std::size_t c) -> std::string {
        const std::size_t begin = c * kChunk;
        const std::size_t end = std::min(begin + kChunk, ss.size());
        for (std::size_t i = begin; i < end; ++i) {
          const Sample& s = ss[i];
          const auto row = [&] { return "sample " + std::to_string(i); };
          if (value(s.device) >= n_devices) {
            return row() + " references device " +
                   std::to_string(value(s.device)) + " of " +
                   std::to_string(n_devices);
          }
          if (static_cast<std::size_t>(s.bin) >= n_bins) {
            return row() + " has bin " + std::to_string(s.bin) +
                   " outside the " + std::to_string(n_bins) +
                   "-bin campaign";
          }
          if (s.ap != kNoAp && value(s.ap) >= n_aps) {
            return row() + " references AP " + std::to_string(value(s.ap)) +
                   " of " + std::to_string(n_aps);
          }
          if (std::size_t{s.app_begin} + s.app_count > n_apps) {
            return row() + " app range [" + std::to_string(s.app_begin) +
                   ", +" + std::to_string(s.app_count) + ") exceeds " +
                   std::to_string(n_apps) + " app records";
          }
          if (i > 0) {
            const Sample& prev = ss[i - 1];
            if (value(prev.device) > value(s.device) ||
                (prev.device == s.device && prev.bin > s.bin)) {
              return row() + " breaks (device, bin) ordering";
            }
          }
        }
        return {};
      });
  for (const std::string& err : chunk_errors) {
    if (!err.empty()) return err;
  }
  return {};
}

}  // namespace tokyonet
