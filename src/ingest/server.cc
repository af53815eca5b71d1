#include "ingest/server.h"

#include <cstring>

namespace tokyonet::ingest {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Universe-size ceiling for Begin frames; a header announcing more
/// devices or APs than this is treated as malformed rather than letting
/// one frame allocate per-entity state for billions of ids.
constexpr std::uint32_t kMaxUniverse = 1u << 24;

[[nodiscard]] bool validate_begin(const BeginPayload& info,
                                  std::string* error) {
  if (info.year < 2013 || info.year > 2015) {
    *error = "Begin frame announces campaign year " +
             std::to_string(info.year) + ", not one of 2013..2015";
    return false;
  }
  if (info.num_days < 1 ||
      info.num_days > 0xFFFFu / static_cast<std::uint32_t>(kBinsPerDay)) {
    *error = "Begin frame announces an invalid campaign length of " +
             std::to_string(info.num_days) + " days";
    return false;
  }
  if (info.start_month < 1 || info.start_month > 12 || info.start_day < 1 ||
      info.start_day > 31) {
    *error = "Begin frame announces an invalid start date";
    return false;
  }
  if (info.n_devices > kMaxUniverse || info.n_aps > kMaxUniverse) {
    *error = "Begin frame announces an implausibly large universe";
    return false;
  }
  return true;
}

}  // namespace

IngestServer::IngestServer(IngestConfig config) : config_(config) {
  if (config_.shards < 1) config_.shards = 1;
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_.queue_capacity));
  }
  workers_.reserve(static_cast<std::size_t>(config_.shards));
  try {
    for (int s = 0; s < config_.shards; ++s) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
  } catch (...) {
    shutdown();  // join the workers already started
    throw;
  }
}

IngestServer::~IngestServer() { shutdown(); }

std::unique_ptr<IngestServer::Session> IngestServer::connect() {
  sessions_opened_.fetch_add(1, kRelaxed);
  return std::unique_ptr<Session>(new Session(*this));
}

void IngestServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(init_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (std::unique_ptr<Shard>& shard : shards_) shard->queue.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool IngestServer::handle_begin(const BeginPayload& info,
                                std::string* error) {
  if (!validate_begin(info, error)) return false;

  std::lock_guard<std::mutex> lk(init_mu_);
  if (shut_down_) {
    *error = "server is shut down";
    return false;
  }
  if (begin_.has_value()) {
    if (std::memcmp(&*begin_, &info, sizeof(BeginPayload)) != 0) {
      *error =
          "Begin frame announces a different campaign than the stream "
          "in progress";
      return false;
    }
    return true;  // another session joining the same campaign
  }

  const std::size_t per_shard =
      (info.n_devices + static_cast<std::uint32_t>(config_.shards) - 1) /
      static_cast<std::uint32_t>(config_.shards);
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->ranges.assign(per_shard, {});
  }
  begin_ = info;
  return true;
}

bool IngestServer::route(Batch batch, std::string* error) {
  Shard& shard =
      *shards_[value(batch.device) % static_cast<std::uint32_t>(
                                         config_.shards)];
  const std::uint64_t n_records = batch.samples.size();
  if (config_.shed_on_overflow) {
    if (!shard.queue.try_push(std::move(batch))) {
      batches_shed_.fetch_add(1, kRelaxed);
      records_shed_.fetch_add(n_records, kRelaxed);
    }
    return true;  // shedding is not a session error
  }
  if (!shard.queue.push(std::move(batch))) {
    *error = "server shut down while the stream was in flight";
    return false;
  }
  return true;
}

void IngestServer::worker_loop(int shard_index) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  while (std::optional<Batch> batch = shard.queue.pop()) {
    commit(shard_index, *batch);
    batches_committed_.fetch_add(1, kRelaxed);
    records_committed_.fetch_add(batch->samples.size(), kRelaxed);
    app_records_committed_.fetch_add(batch->app.size(), kRelaxed);
  }
}

void IngestServer::commit(int shard_index, Batch& batch) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  std::lock_guard<std::mutex> lk(shard.mu);
  const std::uint64_t sample_base = shard.samples.size();
  const std::uint64_t app_base = shard.app.size();
  // Rebase frame-local app references to shard storage; empty samples
  // keep their producer-side offset verbatim (frame.h), which is what
  // makes collect() byte-exact.
  for (Sample& s : batch.samples) {
    if (s.app_count > 0) {
      s.app_begin = static_cast<std::uint32_t>(app_base + s.app_begin);
    }
  }
  shard.samples.insert(shard.samples.cend(), batch.samples.begin(),
                       batch.samples.end());
  shard.app.insert(shard.app.cend(), batch.app.begin(), batch.app.end());
  const std::size_t local =
      value(batch.device) / static_cast<std::uint32_t>(config_.shards);
  shard.ranges[local].emplace_back(
      sample_base, static_cast<std::uint32_t>(batch.samples.size()));
}

IngestCounters IngestServer::counters() const {
  IngestCounters c;
  c.sessions_opened = sessions_opened_.load(kRelaxed);
  c.sessions_closed = sessions_closed_.load(kRelaxed);
  c.sessions_failed = sessions_failed_.load(kRelaxed);
  c.frames_accepted = frames_accepted_.load(kRelaxed);
  c.frames_rejected = frames_rejected_.load(kRelaxed);
  c.bytes_received = bytes_received_.load(kRelaxed);
  c.batches_committed = batches_committed_.load(kRelaxed);
  c.records_committed = records_committed_.load(kRelaxed);
  c.app_records_committed = app_records_committed_.load(kRelaxed);
  c.batches_shed = batches_shed_.load(kRelaxed);
  c.records_shed = records_shed_.load(kRelaxed);
  return c;
}

std::optional<BeginPayload> IngestServer::campaign() const {
  std::lock_guard<std::mutex> lk(init_mu_);
  return begin_;
}

std::optional<Dataset> IngestServer::dataset(std::string* error) const {
  const std::optional<BeginPayload> info = campaign();
  if (!info.has_value()) return std::nullopt;

  Dataset ds;
  ds.year = static_cast<Year>(info->year - 2013);
  ds.calendar = CampaignCalendar(
      Date{info->start_year, static_cast<int>(info->start_month),
           static_cast<int>(info->start_day)},
      static_cast<int>(info->num_days));
  ds.devices.resize(info->n_devices);
  for (std::uint32_t d = 0; d < info->n_devices; ++d) {
    ds.devices[d].id = DeviceId{d};
  }
  ds.aps.resize(info->n_aps);
  {
    CommittedStream committed = collect();
    for (Sample& s : committed.samples) {
      // An app-less sample keeps its producer-side offset (frame.h),
      // which can point past the records committed so far when shards
      // lag or batches were shed; give it an offset inside the array.
      if (s.app_count == 0) s.app_begin = 0;
    }
    ds.samples.insert(ds.samples.cend(), committed.samples.begin(),
                      committed.samples.end());
    ds.app_traffic.insert(ds.app_traffic.cend(),
                          committed.app_traffic.begin(),
                          committed.app_traffic.end());
  }
  if (const std::string invalid = ds.validate_and_index(); !invalid.empty()) {
    if (error != nullptr) {
      *error = "committed records are not a campaign: " + invalid;
    }
    return std::nullopt;
  }
  return ds;
}

std::unique_lock<std::mutex> IngestServer::freeze_shard(int shard) const {
  return std::unique_lock<std::mutex>(
      shards_[static_cast<std::size_t>(shard)]->mu);
}

IngestServer::CommittedStream IngestServer::collect() const {
  CommittedStream out;
  std::optional<BeginPayload> info = campaign();
  if (!info.has_value()) return out;

  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    locks.emplace_back(shard->mu);
  }

  const auto shards = static_cast<std::uint32_t>(config_.shards);
  for (std::uint32_t d = 0; d < info->n_devices; ++d) {
    const Shard& shard = *shards_[d % shards];
    for (const auto& [offset, count] : shard.ranges[d / shards]) {
      for (std::uint32_t i = 0; i < count; ++i) {
        Sample s = shard.samples[offset + i];
        if (s.app_count > 0) {
          const Sample& stored = shard.samples[offset + i];
          const std::uint32_t base =
              static_cast<std::uint32_t>(out.app_traffic.size());
          out.app_traffic.insert(
              out.app_traffic.end(), shard.app.data() + stored.app_begin,
              shard.app.data() + stored.app_begin + stored.app_count);
          s.app_begin = base;
        }
        out.samples.push_back(s);
      }
    }
  }
  return out;
}

// --- Session ------------------------------------------------------------

IngestServer::Session::~Session() {
  if (!settled_) {
    error_ = "session destroyed without finish()";
    settle(/*clean=*/false);
  }
}

void IngestServer::Session::settle(bool clean) {
  if (settled_) return;
  settled_ = true;
  if (clean) {
    server_->sessions_closed_.fetch_add(1, kRelaxed);
  } else {
    server_->sessions_failed_.fetch_add(1, kRelaxed);
  }
}

bool IngestServer::Session::fail(std::string what) {
  if (!failed_) {
    failed_ = true;
    error_ = std::move(what);
    settle(/*clean=*/false);
  }
  return false;
}

bool IngestServer::Session::feed(std::span<const std::uint8_t> bytes) {
  if (failed_) return false;
  server_->bytes_received_.fetch_add(bytes.size(), kRelaxed);
  parser_.feed(bytes);
  for (;;) {
    Frame frame;
    switch (parser_.next(frame)) {
      case FrameParser::Status::Frame:
        if (!on_frame(frame)) return false;
        break;
      case FrameParser::Status::NeedMore:
        return true;
      case FrameParser::Status::Error:
        server_->frames_rejected_.fetch_add(1, kRelaxed);
        return fail(parser_.error());
    }
  }
}

bool IngestServer::Session::on_frame(const Frame& frame) {
  // Any rule violation from here on is a *session* error: the frame
  // decoded, but breaks the stream protocol or the announced universe.
  const auto reject = [&](std::string what) {
    server_->frames_rejected_.fetch_add(1, kRelaxed);
    return fail(std::move(what));
  };

  if (ended_) return reject("frame after End");
  switch (frame.type) {
    case FrameType::Begin: {
      if (begun_) return reject("duplicate Begin frame");
      std::string error;
      if (!server_->handle_begin(frame.begin, &error)) {
        return reject(std::move(error));
      }
      campaign_ = frame.begin;
      begun_ = true;
      break;
    }
    case FrameType::Records: {
      if (!begun_) return reject("Records frame before Begin");
      if (value(frame.device) >= campaign_.n_devices) {
        return reject("Records frame for device " +
                      std::to_string(value(frame.device)) +
                      " outside the announced universe of " +
                      std::to_string(campaign_.n_devices));
      }
      const std::uint32_t num_bins = campaign_.num_days * kBinsPerDay;
      for (std::size_t i = 0; i < frame.samples.size(); ++i) {
        const Sample& s = frame.samples[i];
        if (s.bin >= num_bins) {
          return reject("sample " + std::to_string(i) + " at bin " +
                        std::to_string(s.bin) +
                        " outside the announced campaign of " +
                        std::to_string(num_bins) + " bins");
        }
        if (s.ap != kNoAp && value(s.ap) >= campaign_.n_aps) {
          return reject("sample " + std::to_string(i) +
                        " references AP " + std::to_string(value(s.ap)) +
                        " outside the announced universe of " +
                        std::to_string(campaign_.n_aps));
        }
      }
      Batch batch;
      batch.device = frame.device;
      batch.samples.assign(frame.samples.begin(), frame.samples.end());
      batch.app.assign(frame.app.begin(), frame.app.end());
      std::string error;
      if (!server_->route(std::move(batch), &error)) {
        return fail(std::move(error));
      }
      break;
    }
    case FrameType::End:
      if (!begun_) return reject("End frame before Begin");
      ended_ = true;
      break;
  }
  server_->frames_accepted_.fetch_add(1, kRelaxed);
  return true;
}

bool IngestServer::Session::finish() {
  if (failed_) return false;
  if (!begun_) return fail("connection closed before Begin");
  if (!ended_) return fail("connection closed before End");
  if (parser_.pending_bytes() > 0) {
    return fail("trailing bytes after the last complete frame");
  }
  settle(/*clean=*/true);
  return true;
}

}  // namespace tokyonet::ingest
