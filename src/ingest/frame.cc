#include "ingest/frame.h"

#include <cstring>

#include "core/hash.h"

namespace tokyonet::ingest {
namespace {

constexpr std::uint64_t kFrameHashSeed = 0x746B796F696E6731ull;

[[nodiscard]] std::uint64_t payload_crc(const std::uint8_t* data,
                                        std::size_t n) noexcept {
  return core::hash_bytes(data, n, kFrameHashSeed);
}

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}

void append_frame(FrameType type, std::uint32_t device,
                  std::uint32_t n_samples, std::uint32_t n_app,
                  std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>& out) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.device = device;
  h.n_samples = n_samples;
  h.n_app = n_app;
  h.payload_bytes = static_cast<std::uint32_t>(payload.size());
  h.payload_crc = payload_crc(payload.data(), payload.size());
  append_bytes(out, &h, sizeof(h));
  append_bytes(out, payload.data(), payload.size());
}

}  // namespace

void encode_begin(const BeginPayload& info, std::vector<std::uint8_t>& out) {
  append_frame(FrameType::Begin, 0, 0, 0,
               {reinterpret_cast<const std::uint8_t*>(&info), sizeof(info)},
               out);
}

void encode_records(DeviceId device, std::span<const Sample> samples,
                    std::span<const AppTraffic> app,
                    std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> payload;
  payload.reserve(samples.size_bytes() + app.size_bytes());
  append_bytes(payload, samples.data(), samples.size_bytes());
  append_bytes(payload, app.data(), app.size_bytes());
  append_frame(FrameType::Records, value(device),
               static_cast<std::uint32_t>(samples.size()),
               static_cast<std::uint32_t>(app.size()), payload, out);
}

void encode_end(std::vector<std::uint8_t>& out) {
  append_frame(FrameType::End, 0, 0, 0, {}, out);
}

// --- FrameParser --------------------------------------------------------

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  if (failed()) return;
  // Compact the consumed prefix before growing, so a long stream never
  // accumulates more than one frame of slack.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

FrameParser::Status FrameParser::fail(std::string what) {
  error_ = std::move(what);
  buf_.clear();
  pos_ = 0;
  return Status::Error;
}

FrameParser::Status FrameParser::next(Frame& out) {
  if (failed()) return Status::Error;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < sizeof(FrameHeader)) return Status::NeedMore;

  FrameHeader h;
  std::memcpy(&h, buf_.data() + pos_, sizeof(h));
  if (h.magic != kFrameMagic) {
    return fail("bad frame magic (not a tokyonet ingest stream)");
  }
  if (h.version != kIngestVersion) {
    return fail("unsupported ingest frame version " +
                std::to_string(h.version) + " (this build speaks " +
                std::to_string(kIngestVersion) + ")");
  }
  if (h.payload_bytes > kMaxFramePayload) {
    return fail("frame payload of " + std::to_string(h.payload_bytes) +
                " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                "-byte limit");
  }

  // Per-type length arithmetic, before waiting for the payload, so a
  // nonsense header fails immediately rather than after a long read.
  const auto type = static_cast<FrameType>(h.type);
  switch (type) {
    case FrameType::Begin:
      if (h.payload_bytes != sizeof(BeginPayload) || h.n_samples != 0 ||
          h.n_app != 0 || h.device != 0) {
        return fail("malformed Begin frame header");
      }
      break;
    case FrameType::Records: {
      const std::uint64_t want =
          std::uint64_t{h.n_samples} * sizeof(Sample) +
          std::uint64_t{h.n_app} * sizeof(AppTraffic);
      if (want != h.payload_bytes) {
        return fail("Records frame length mismatch: header claims " +
                    std::to_string(h.n_samples) + " samples + " +
                    std::to_string(h.n_app) + " app records but " +
                    std::to_string(h.payload_bytes) + " payload bytes");
      }
      break;
    }
    case FrameType::End:
      if (h.payload_bytes != 0 || h.n_samples != 0 || h.n_app != 0 ||
          h.device != 0) {
        return fail("malformed End frame header");
      }
      break;
    default:
      return fail("unknown frame type " + std::to_string(h.type));
  }

  if (avail < sizeof(FrameHeader) + h.payload_bytes) return Status::NeedMore;
  const std::uint8_t* payload = buf_.data() + pos_ + sizeof(FrameHeader);
  if (payload_crc(payload, h.payload_bytes) != h.payload_crc) {
    return fail("frame CRC mismatch (corrupted payload)");
  }

  out = Frame{};
  out.type = type;
  out.device = DeviceId{h.device};
  if (type == FrameType::Begin) {
    std::memcpy(&out.begin, payload, sizeof(BeginPayload));
    if (out.begin.sample_size != sizeof(Sample) ||
        out.begin.app_size != sizeof(AppTraffic)) {
      return fail("record size mismatch (incompatible producer layout)");
    }
  } else if (type == FrameType::Records) {
    samples_.resize(h.n_samples);
    app_.resize(h.n_app);
    // An empty vector's data() may be null, and memcpy with a null
    // pointer is undefined even for zero bytes.
    if (h.n_samples > 0) {
      std::memcpy(samples_.data(), payload,
                  std::size_t{h.n_samples} * sizeof(Sample));
    }
    if (h.n_app > 0) {
      std::memcpy(app_.data(),
                  payload + std::size_t{h.n_samples} * sizeof(Sample),
                  std::size_t{h.n_app} * sizeof(AppTraffic));
    }
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const Sample& s = samples_[i];
      if (s.device != out.device) {
        return fail("sample " + std::to_string(i) +
                    " belongs to device " + std::to_string(value(s.device)) +
                    " inside a frame for device " +
                    std::to_string(h.device));
      }
      if (s.app_count > 0 &&
          std::uint64_t{s.app_begin} + s.app_count > h.n_app) {
        return fail("sample " + std::to_string(i) +
                    " references app records beyond the frame");
      }
    }
    out.samples = {samples_.data(), samples_.size()};
    out.app = {app_.data(), app_.size()};
  }

  pos_ += sizeof(FrameHeader) + h.payload_bytes;
  return Status::Frame;
}

}  // namespace tokyonet::ingest
