#include "ingest/replay.h"

#include <chrono>
#include <cstring>
#include <thread>

namespace tokyonet::ingest {
namespace {

/// Pace the stream so that after `records_sent` records, roughly
/// records_sent / rate seconds have elapsed since `start`.
void pace(std::chrono::steady_clock::time_point start, double rate,
          std::uint64_t records_sent) {
  if (rate <= 0.0) return;
  const auto due =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      static_cast<double>(records_sent) / rate));
  std::this_thread::sleep_until(due);
}

/// "" when `got` and `want` hold the same records byte for byte, else
/// the first difference.
template <typename T>
std::string first_difference(const char* what, std::span<const T> got,
                             std::span<const T> want) {
  if (got.size() != want.size()) {
    return std::string(what) + ": " + std::to_string(got.size()) +
           " committed vs " + std::to_string(want.size()) + " replayed";
  }
  if (got.empty() ||
      std::memcmp(got.data(), want.data(), got.size_bytes()) == 0) {
    return "";
  }
  std::size_t i = 0;
  while (std::memcmp(&got[i], &want[i], sizeof(T)) == 0) ++i;
  return std::string(what) + " record " + std::to_string(i) + " differs";
}

}  // namespace

BeginPayload begin_payload_for(const Dataset& ds,
                               std::uint32_t device_multiplier) {
  if (device_multiplier < 1) device_multiplier = 1;
  BeginPayload p;
  p.year = static_cast<std::uint32_t>(year_number(ds.year));
  const Date start = ds.calendar.start_date();
  p.start_year = start.year;
  p.start_month = static_cast<std::uint32_t>(start.month);
  p.start_day = static_cast<std::uint32_t>(start.day);
  p.num_days = static_cast<std::uint32_t>(ds.calendar.num_days());
  p.n_devices =
      static_cast<std::uint32_t>(ds.devices.size()) * device_multiplier;
  p.n_aps = static_cast<std::uint32_t>(ds.aps.size());
  return p;
}

bool replay_dataset(const Dataset& ds, const ReplayOptions& opts,
                    FrameSink& sink, ReplayStats* stats) {
  const std::size_t batch_records =
      opts.batch_records < 1 ? 1 : opts.batch_records;
  const std::uint32_t multiplier =
      opts.device_multiplier < 1 ? 1 : opts.device_multiplier;
  const auto n_devices = static_cast<std::uint32_t>(ds.devices.size());

  ReplayStats local;
  ReplayStats& st = stats != nullptr ? *stats : local;
  st = ReplayStats{};
  const auto t0 = std::chrono::steady_clock::now();
  const auto finish = [&](bool ok) {
    st.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return ok;
  };

  std::vector<std::uint8_t> buf;
  const auto flush = [&]() {
    st.bytes += buf.size();
    const bool ok = sink.write(buf);
    buf.clear();
    return ok;
  };

  encode_begin(begin_payload_for(ds, multiplier), buf);
  if (!flush()) return finish(false);

  // Scratch for one frame's samples + frame-local app records.
  std::vector<Sample> chunk;
  std::vector<AppTraffic> apps;

  const Sample* samples = ds.samples.data();
  const std::size_t n = ds.samples.size();
  std::size_t run_begin = 0;
  while (run_begin < n) {
    // One device's contiguous, time-ordered run (Dataset guarantees
    // (device, bin) sort order).
    const DeviceId device = samples[run_begin].device;
    std::size_t run_end = run_begin;
    while (run_end < n && samples[run_end].device == device) ++run_end;

    for (std::uint32_t clone = 0; clone < multiplier; ++clone) {
      const DeviceId out_device{value(device) + clone * n_devices};
      for (std::size_t at = run_begin; at < run_end; at += batch_records) {
        const std::size_t take = std::min(batch_records, run_end - at);
        chunk.clear();
        apps.clear();
        for (std::size_t i = 0; i < take; ++i) {
          Sample s = samples[at + i];
          s.device = out_device;
          if (s.app_count > 0) {
            const std::span<const AppTraffic> sa = ds.apps_of(s);
            s.app_begin = static_cast<std::uint32_t>(apps.size());
            apps.insert(apps.end(), sa.begin(), sa.end());
          }
          chunk.push_back(s);
        }
        encode_records(out_device, chunk, apps, buf);
        st.frames += 1;
        st.records += chunk.size();
        st.app_records += apps.size();
        if (!flush()) return finish(false);
        pace(t0, opts.rate_records_per_sec, st.records);
      }
    }
    run_begin = run_end;
  }

  encode_end(buf);
  if (!flush()) return finish(false);
  return finish(true);
}

std::string replay_mismatch(const Dataset& ds,
                            const IngestServer::CommittedStream& committed) {
  std::string diff = first_difference<Sample>("samples", committed.samples,
                                              ds.samples.span());
  if (diff.empty()) {
    diff = first_difference<AppTraffic>("app records", committed.app_traffic,
                                        ds.app_traffic.span());
  }
  return diff;
}

}  // namespace tokyonet::ingest
