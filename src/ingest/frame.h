// Wire format of the streaming ingest path (DESIGN.md §5e).
//
// A connection carries a sequence of length-prefixed, CRC-checked binary
// frames:
//
//   [ FrameHeader (32 B) | payload (header.payload_bytes) ]
//
// Three frame types:
//   Begin   — campaign metadata (calendar, device/AP universe sizes and
//             the native record sizes, so a layout-skewed peer is
//             rejected exactly like an incompatible snapshot).
//   Records — one device's batch: Sample[n_samples] ++ AppTraffic[n_app]
//             in their native fixed-width encodings (the same layouts
//             io/snapshot writes). Samples with app_count > 0 have
//             app_begin rebased to index the frame's app array; samples
//             with app_count == 0 keep their producer-side offset
//             verbatim, so a committed stream can be reassembled
//             byte-identically.
//   End     — clean end of stream (an EOF without End is an error).
//
// The payload CRC uses core::hash_bytes, the same 64-bit hash snapshots
// use for sections. Every structural rule a decoder enforces (magic,
// version, type, length arithmetic, CRC, per-frame device consistency,
// and the campaign contract's per-sample rule — app references, sample
// order, enum and bool bytes in range, core/records.h) fails as a clean
// per-connection error — a malformed frame can never take the server
// down (ingest/server.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/records.h"

namespace tokyonet::ingest {

inline constexpr std::uint32_t kFrameMagic = 0x464B4954;  // "TIKF" LE
/// Bump on any change to the header, payload layouts, or CRC.
inline constexpr std::uint16_t kIngestVersion = 1;
/// Upper bound on a frame payload; a header announcing more is
/// malformed (it would otherwise let one bad length allocate GBs).
inline constexpr std::uint32_t kMaxFramePayload = 8u << 20;

enum class FrameType : std::uint16_t { Begin = 0, Records = 1, End = 2 };

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kIngestVersion;
  std::uint16_t type = 0;
  std::uint32_t device = 0;  // Records: device id; otherwise 0
  std::uint32_t n_samples = 0;
  std::uint32_t n_app = 0;
  std::uint32_t payload_bytes = 0;
  std::uint64_t payload_crc = 0;  // core::hash_bytes over the payload
};
static_assert(sizeof(FrameHeader) == 32);

/// Begin payload: everything the server needs to size its storage,
/// validate later records and frame the committed records as a
/// campaign (calendar, universe sizes).
struct BeginPayload {
  std::uint32_t year = 0;  // calendar year, 2013..2015
  std::int32_t start_year = 0;
  std::uint32_t start_month = 0;
  std::uint32_t start_day = 0;
  std::uint32_t num_days = 0;
  std::uint32_t n_devices = 0;
  std::uint32_t n_aps = 0;
  /// Native record sizes of the producer; a disagreeing consumer
  /// rejects the session instead of misreading the stream.
  std::uint32_t sample_size = sizeof(Sample);
  std::uint32_t app_size = sizeof(AppTraffic);
  std::uint32_t reserved[3] = {};
};
static_assert(sizeof(BeginPayload) == 48);

/// One decoded frame. For Records, `samples`/`app` view the parser's
/// internal buffer and are valid until the next parser call.
struct Frame {
  FrameType type = FrameType::End;
  DeviceId device{};
  BeginPayload begin;  // Begin frames only
  std::span<const Sample> samples;
  std::span<const AppTraffic> app;
};

// --- Encoding -----------------------------------------------------------

/// Appends a Begin frame for `info` to `out`.
void encode_begin(const BeginPayload& info, std::vector<std::uint8_t>& out);

/// Appends a Records frame carrying one device's batch. `samples` must
/// reference `app` through frame-local [app_begin, app_begin+app_count)
/// ranges (samples with app_count == 0 are passed through untouched).
void encode_records(DeviceId device, std::span<const Sample> samples,
                    std::span<const AppTraffic> app,
                    std::vector<std::uint8_t>& out);

/// Appends an End frame to `out`.
void encode_end(std::vector<std::uint8_t>& out);

// --- Decoding -----------------------------------------------------------

/// Incremental frame parser over an arbitrary byte stream (TCP reads,
/// loopback chunks). Feed bytes, then drain frames:
///
///   parser.feed(bytes);
///   Frame f;
///   while (parser.next(f) == FrameParser::Status::Frame) { ... }
///
/// The first malformed byte poisons the parser: every later call
/// returns Error with a stable message. This mirrors a connection
/// teardown — there is no way to resynchronize a corrupt binary stream.
class FrameParser {
 public:
  enum class Status { Frame, NeedMore, Error };

  void feed(std::span<const std::uint8_t> bytes);

  /// Parses the next complete frame out of the buffered bytes.
  [[nodiscard]] Status next(Frame& out);

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  /// Bytes buffered but not yet consumed by a complete frame.
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  Status fail(std::string what);

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::string error_;
  // Scratch holding the decoded records of the last Records frame.
  std::vector<Sample> samples_;
  std::vector<AppTraffic> app_;
};

}  // namespace tokyonet::ingest
