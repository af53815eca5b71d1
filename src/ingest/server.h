// Sharded streaming ingest server (DESIGN.md §5e).
//
// Sessions (one per connection, any thread) parse ingest frames
// (ingest/frame.h) and route each device batch to the shard owning the
// device (`device % shards`). Each shard has a worker thread owned by
// the server that drains a bounded FIFO queue — blocking producers when
// it falls behind (backpressure), or dropping batches with a counter in
// shed mode — and commits batches into `core::Column`-backed storage.
// The workers never touch the core::parallel pool, so analysis kernels
// (including a mid-stream `result()`) run on the pool while a stream is
// active.
//
// Queries run the batch kernels over the committed records: `result()`
// is `analysis::batch_stream_result()` over `collect()`, framed by the
// Begin frame.
//
// Error discipline: every malformed input — truncated frame, bad CRC,
// wrong version, out-of-range record references — fails only the
// session that sent it (counted in `sessions_failed`/`frames_rejected`)
// and never the server; committed data from other sessions is
// unaffected. This mirrors the snapshot loader's corruption handling.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stream_result.h"
#include "core/column.h"
#include "ingest/frame.h"
#include "ingest/queue.h"

namespace tokyonet::ingest {

struct IngestConfig {
  /// Worker shards; devices map to shards by `device % shards`.
  int shards = 1;
  /// Records frames buffered per shard queue before the overflow
  /// discipline kicks in.
  std::size_t queue_capacity = 64;
  /// false: producers block until the worker catches up (lossless
  /// backpressure). true: full queues drop batches, counted in
  /// `batches_shed`/`records_shed`.
  bool shed_on_overflow = false;
};

/// Monotonic counters, snapshot via IngestServer::counters().
struct IngestCounters {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;  // clean End + finish()
  std::uint64_t sessions_failed = 0;  // malformed frame or protocol error
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t batches_committed = 0;
  std::uint64_t records_committed = 0;
  std::uint64_t app_records_committed = 0;
  std::uint64_t batches_shed = 0;
  std::uint64_t records_shed = 0;
};

class IngestServer {
 public:
  explicit IngestServer(IngestConfig config = {});
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// One connection's receive state. feed() accepts arbitrary byte
  /// chunks (a TCP read, a whole encoded stream); the first malformed
  /// byte fails the session permanently. Not thread-safe: a session
  /// belongs to the one thread driving its connection.
  class Session {
   public:
    ~Session();

    /// Parses and routes every complete frame in `bytes`. Returns false
    /// once the session has failed; error() says why.
    [[nodiscard]] bool feed(std::span<const std::uint8_t> bytes);

    /// Call at end of input. True only for a clean stream: Begin seen,
    /// End seen, no trailing bytes.
    [[nodiscard]] bool finish();

    [[nodiscard]] const std::string& error() const noexcept {
      return error_;
    }

   private:
    friend class IngestServer;
    explicit Session(IngestServer& server) : server_(&server) {}
    bool fail(std::string what);
    bool on_frame(const Frame& f);
    void settle(bool clean);

    IngestServer* server_;
    FrameParser parser_;
    BeginPayload campaign_;  // valid once begun_
    std::string error_;
    bool begun_ = false;
    bool ended_ = false;
    bool failed_ = false;
    bool settled_ = false;
  };

  /// Opens a new session. The server must outlive it.
  [[nodiscard]] std::unique_ptr<Session> connect();

  /// Closes the shard queues, drains what is already enqueued, and
  /// stops the workers. Call after all sessions are finished; sessions
  /// still feeding fail cleanly. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] IngestCounters counters() const;

  /// Campaign announced by the first Begin frame (nullopt before).
  [[nodiscard]] std::optional<BeginPayload> campaign() const;

  /// `analysis::batch_stream_result()` over the records committed so
  /// far, in a Dataset framed by the Begin frame (calendar, device ids,
  /// AP universe size) with its index built. Safe mid-stream: it reads
  /// one consistent collect() snapshot, so each call copies and indexes
  /// every record committed so far. Empty before the first Begin
  /// frame. Also empty when the committed records are not a campaign in
  /// (device, bin) order — two sessions replayed the same device, or a
  /// producer sent a device's bins out of order; `error`, when given,
  /// then receives the reason.
  [[nodiscard]] analysis::StreamResult result(
      std::string* error = nullptr) const;

  /// Locks one shard's committed storage, pausing its worker at the
  /// next commit. Used by tests (deterministic backpressure) and by
  /// operators who want several consistent reads in a row.
  [[nodiscard]] std::unique_lock<std::mutex> freeze_shard(int shard) const;

  /// The committed record stream, reassembled in device-id order with
  /// `app_begin` rebased to the returned app array — byte-identical to
  /// the producer's original (device, bin)-sorted arrays when nothing
  /// was shed. Takes all shard locks, so a mid-stream call returns one
  /// consistent snapshot.
  struct CommittedStream {
    std::vector<Sample> samples;
    std::vector<AppTraffic> app_traffic;
  };
  [[nodiscard]] CommittedStream collect() const;

  [[nodiscard]] const IngestConfig& config() const noexcept {
    return config_;
  }

 private:
  /// One device batch in flight between a session and a shard worker.
  struct Batch {
    DeviceId device{};
    std::vector<Sample> samples;
    std::vector<AppTraffic> app;
  };

  /// Committed storage of one shard. Guarded by `mu`; the queue has its
  /// own synchronization.
  struct Shard {
    explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}

    BoundedQueue<Batch> queue;
    mutable std::mutex mu;
    core::Column<Sample> samples;
    core::Column<AppTraffic> app;
    /// Per owned device (local index = device / shards): committed
    /// (offset, count) ranges into `samples`, in arrival order.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>> ranges;
  };

  [[nodiscard]] bool handle_begin(const BeginPayload& info,
                                  std::string* error);
  [[nodiscard]] bool route(Batch batch, std::string* error);
  void worker_loop(int shard_index);
  void commit(int shard_index, Batch& batch);

  IngestConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex init_mu_;  // guards begin_ and shut_down_
  std::optional<BeginPayload> begin_;
  bool shut_down_ = false;

  // Counters (relaxed: monotonic statistics, no ordering needed).
  std::atomic<std::uint64_t> sessions_opened_{0}, sessions_closed_{0},
      sessions_failed_{0}, frames_accepted_{0}, frames_rejected_{0},
      bytes_received_{0}, batches_committed_{0}, records_committed_{0},
      app_records_committed_{0}, batches_shed_{0}, records_shed_{0};

  /// One worker per shard, started by the constructor and joined by
  /// shutdown(). Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace tokyonet::ingest
