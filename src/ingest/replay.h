// Replay client: streams a materialized campaign through the ingest
// frame protocol — Begin, then every device's samples as Records frames
// in time order, then End. This is both the load generator for the
// `tokyonet ingest` CLI and the reference producer the equivalence
// tests drive: ingest is lossless when the server commits the replayed
// samples and app records byte for byte (`replay_mismatch`).
//
// The client is transport-agnostic: it writes encoded frames into a
// FrameSink, which an in-process loopback (SessionSink) or a TCP client
// (ingest/tcp.h) implements.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/records.h"
#include "ingest/frame.h"
#include "ingest/server.h"

namespace tokyonet::ingest {

struct ReplayOptions {
  /// Max samples per Records frame (>= 1); a device with more samples
  /// sends several frames, still in time order.
  std::size_t batch_records = 512;
  /// Target replay rate in samples/second; 0 streams unthrottled.
  double rate_records_per_sec = 0.0;
  /// Clones the device universe k times (device i of clone c streams as
  /// device i + c * n_devices), scaling load without a bigger
  /// simulation. Analysis equivalence only holds at multiplier 1.
  std::uint32_t device_multiplier = 1;
};

/// Where encoded frames go. write() returning false aborts the replay.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  [[nodiscard]] virtual bool write(std::span<const std::uint8_t> bytes) = 0;
};

/// Loopback transport: frames feed an in-process server session.
class SessionSink final : public FrameSink {
 public:
  explicit SessionSink(IngestServer::Session& session)
      : session_(&session) {}
  [[nodiscard]] bool write(std::span<const std::uint8_t> bytes) override {
    return session_->feed(bytes);
  }

 private:
  IngestServer::Session* session_;
};

struct ReplayStats {
  std::uint64_t frames = 0;  // Records frames (Begin/End not counted)
  std::uint64_t records = 0;
  std::uint64_t app_records = 0;
  std::uint64_t bytes = 0;  // total encoded bytes, all frame types
  double wall_seconds = 0.0;
};

/// The Begin payload replaying `ds` announces (universe scaled by the
/// device multiplier).
[[nodiscard]] BeginPayload begin_payload_for(
    const Dataset& ds, std::uint32_t device_multiplier = 1);

/// Streams `ds` into `sink` as one complete frame stream. Returns false
/// if the sink rejected a write (e.g. the session failed); `stats` is
/// filled with whatever was sent either way.
[[nodiscard]] bool replay_dataset(const Dataset& ds,
                                  const ReplayOptions& opts, FrameSink& sink,
                                  ReplayStats* stats = nullptr);

/// The lossless-ingest check: "" when `committed` (IngestServer::
/// collect()) holds exactly the samples and app records of `ds`, byte
/// for byte — true of a clean replay at device multiplier 1 with
/// nothing shed, at any shard count — else the first difference.
[[nodiscard]] std::string replay_mismatch(
    const Dataset& ds, const IngestServer::CommittedStream& committed);

}  // namespace tokyonet::ingest
