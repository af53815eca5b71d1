// Tests for the streaming ingest subsystem (src/ingest): frame
// encode/decode round-trips, malformed-frame handling, bounded-queue
// backpressure, the sharded server's error discipline, and the headline
// invariant — a campaign replayed through ingest is committed byte for
// byte, at any shard count, and the committed campaign is a Dataset the
// batch kernels answer over, mid-stream too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/common.h"
#include "core/dataset_index.h"
#include "core/parallel.h"
#include "ingest/frame.h"
#include "ingest/queue.h"
#include "ingest/replay.h"
#include "ingest/server.h"
#include "ingest/tcp.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "testutil.h"

namespace tokyonet::ingest {
namespace {

/// A 3-device, 2-day dataset with app records, an AP association, a
/// tethering sample and app-less samples carrying producer offsets.
Dataset tiny_dataset() {
  Dataset ds = test::empty_dataset(3, 2);
  const ApId ap = test::add_ap(ds, "home-net");

  Sample& s0 = test::add_sample(ds, 0, 0, 5'000'000, 0);
  s0.app_begin = 0;
  s0.app_count = 2;
  ds.app_traffic.push_back(
      {.category = AppCategory::Video, .rx_bytes = 4'000'000,
       .tx_bytes = 100'000});
  ds.app_traffic.push_back(
      {.category = AppCategory::Social, .rx_bytes = 900'000,
       .tx_bytes = 50'000});
  Sample& s1 =
      test::add_sample(ds, 0, 150, 0, 2'000'000, WifiState::Associated, ap);
  s1.app_begin = 2;  // app_count == 0: producer offset passes through
  test::add_sample(ds, 1, 3, 1'000'000, 0).tethering = true;
  Sample& s3 =
      test::add_sample(ds, 1, 200, 0, 7'000'000, WifiState::Associated, ap);
  s3.app_begin = 2;
  s3.app_count = 1;
  ds.app_traffic.push_back(
      {.category = AppCategory::Browser, .rx_bytes = 6'000'000,
       .tx_bytes = 10'000});
  test::add_sample(ds, 2, 100, 300'000, 0);

  test::build_index(ds);
  return ds;
}

/// Encodes ds as Begin + one Records frame per sample + End.
std::vector<std::uint8_t> encode_stream(const Dataset& ds,
                                        std::size_t batch_records = 1) {
  struct VectorSink final : FrameSink {
    bool write(std::span<const std::uint8_t> b) override {
      bytes.insert(bytes.end(), b.begin(), b.end());
      return true;
    }
    std::vector<std::uint8_t> bytes;
  } sink;
  ReplayOptions opts;
  opts.batch_records = batch_records;
  EXPECT_TRUE(replay_dataset(ds, opts, sink));
  return sink.bytes;
}

void wait_for(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for ingest progress";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- Frame format -------------------------------------------------------

TEST(IngestFrameTest, RoundTripInArbitraryChunks) {
  const Dataset ds = tiny_dataset();
  BeginPayload info = begin_payload_for(ds);

  std::vector<std::uint8_t> bytes;
  encode_begin(info, bytes);
  const std::vector<Sample> samples(ds.samples.begin(), ds.samples.end());
  // One frame for device 0's two samples: frame-local app references.
  std::vector<Sample> frame_samples = {samples[0], samples[1]};
  const std::vector<AppTraffic> frame_apps = {ds.app_traffic[0],
                                              ds.app_traffic[1]};
  encode_records(DeviceId{0}, frame_samples, frame_apps, bytes);
  encode_end(bytes);

  // Feed in deliberately awkward 7-byte chunks.
  FrameParser parser;
  std::vector<Frame> frames;
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    const std::size_t n = std::min<std::size_t>(7, bytes.size() - at);
    parser.feed({bytes.data() + at, n});
    Frame f;
    while (parser.next(f) == FrameParser::Status::Frame) {
      // Records spans alias parser scratch; deep-copy what we check.
      frames.push_back(f);
      if (f.type == FrameType::Records) {
        ASSERT_EQ(f.samples.size(), frame_samples.size());
        EXPECT_EQ(std::memcmp(f.samples.data(), frame_samples.data(),
                              f.samples.size() * sizeof(Sample)),
                  0);
        ASSERT_EQ(f.app.size(), frame_apps.size());
        EXPECT_EQ(std::memcmp(f.app.data(), frame_apps.data(),
                              f.app.size() * sizeof(AppTraffic)),
                  0);
      }
    }
    ASSERT_FALSE(parser.failed()) << parser.error();
  }

  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::Begin);
  EXPECT_EQ(std::memcmp(&frames[0].begin, &info, sizeof(info)), 0);
  EXPECT_EQ(frames[1].type, FrameType::Records);
  EXPECT_EQ(frames[1].device, DeviceId{0});
  EXPECT_EQ(frames[2].type, FrameType::End);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(IngestFrameTest, TruncatedFrameIsNeedMoreNotError) {
  std::vector<std::uint8_t> bytes;
  encode_begin(BeginPayload{}, bytes);
  FrameParser parser;
  parser.feed({bytes.data(), bytes.size() - 1});
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::NeedMore);
  EXPECT_FALSE(parser.failed());
  EXPECT_GT(parser.pending_bytes(), 0u);
  // The missing byte completes the frame.
  parser.feed({bytes.data() + bytes.size() - 1, 1});
  EXPECT_EQ(parser.next(f), FrameParser::Status::Frame);
}

TEST(IngestFrameTest, BadMagicPoisonsParser) {
  std::vector<std::uint8_t> bytes;
  encode_end(bytes);
  bytes[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("magic"), std::string::npos);
  // Poisoned: even a well-formed follow-up frame is rejected.
  std::vector<std::uint8_t> good;
  encode_end(good);
  parser.feed(good);
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
}

TEST(IngestFrameTest, WrongVersionRejected) {
  std::vector<std::uint8_t> bytes;
  encode_end(bytes);
  FrameHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  h.version = 99;
  std::memcpy(bytes.data(), &h, sizeof(h));
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("version"), std::string::npos);
}

TEST(IngestFrameTest, CorruptPayloadFailsCrc) {
  std::vector<std::uint8_t> bytes;
  encode_begin(BeginPayload{}, bytes);
  bytes[sizeof(FrameHeader) + 4] ^= 0x01;  // flip one payload bit
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("CRC"), std::string::npos);
}

TEST(IngestFrameTest, OversizePayloadRejectedFromHeaderAlone) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(FrameType::Records);
  h.n_samples = kMaxFramePayload;  // implies a payload far past the cap
  h.payload_bytes = 0xFFFFFFFFu;
  std::vector<std::uint8_t> bytes(sizeof(h));
  std::memcpy(bytes.data(), &h, sizeof(h));
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  // No payload was ever sent: the header alone is enough to reject.
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("limit"), std::string::npos);
}

TEST(IngestFrameTest, HeaderLengthArithmeticChecked) {
  const Dataset ds = tiny_dataset();
  std::vector<std::uint8_t> bytes;
  const std::vector<Sample> one = {ds.samples[4]};
  encode_records(DeviceId{2}, one, {}, bytes);
  FrameHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  h.n_samples = 2;  // claims more records than the payload carries
  std::memcpy(bytes.data(), &h, sizeof(h));
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("length mismatch"), std::string::npos);
}

TEST(IngestFrameTest, AppReferencePastFrameRejected) {
  Sample s;
  s.device = DeviceId{1};
  s.app_begin = 0;
  s.app_count = 3;  // frame only carries one app record
  const std::vector<Sample> samples = {s};
  const std::vector<AppTraffic> apps = {
      {.category = AppCategory::Game, .rx_bytes = 1, .tx_bytes = 1}};
  std::vector<std::uint8_t> bytes;
  encode_records(DeviceId{1}, samples, apps, bytes);
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("app records beyond"), std::string::npos);
}

TEST(IngestFrameTest, ForeignDeviceInsideFrameRejected) {
  Sample s;
  s.device = DeviceId{5};
  const std::vector<Sample> samples = {s};
  std::vector<std::uint8_t> bytes;
  encode_records(DeviceId{3}, samples, {}, bytes);
  FrameParser parser;
  parser.feed(bytes);
  Frame f;
  EXPECT_EQ(parser.next(f), FrameParser::Status::Error);
  EXPECT_NE(parser.error().find("belongs to device"), std::string::npos);
}

// --- Bounded queue ------------------------------------------------------

TEST(IngestQueueTest, TryPushShedsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: shed
  ASSERT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(4));  // space freed
  EXPECT_EQ(q.size(), 2u);
}

TEST(IngestQueueTest, PushBlocksUntilConsumerMakesSpace) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> unblocked{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // must block: queue is full
    unblocked = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(unblocked.load());  // still parked in push()
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(unblocked.load());
  EXPECT_EQ(q.pop(), 2);
}

TEST(IngestQueueTest, CloseDrainsThenSignalsEndOfStream) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));      // closed: producers fail
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.pop(), 1);  // consumer still drains the backlog
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);  // then end-of-stream
}

TEST(IngestQueueTest, CloseUnblocksParkedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
}

// --- Server: protocol and error discipline ------------------------------

TEST(IngestServerTest, LoopbackStreamCommitsAndMatchesBatch) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2, .queue_capacity = 4});
  auto session = server.connect();
  SessionSink sink(*session);
  ReplayOptions opts;
  opts.batch_records = 2;
  ASSERT_TRUE(replay_dataset(ds, opts, sink));
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_closed, 1u);
  EXPECT_EQ(c.sessions_failed, 0u);
  EXPECT_EQ(c.frames_rejected, 0u);
  EXPECT_EQ(c.records_committed, ds.samples.size());
  EXPECT_EQ(c.app_records_committed, ds.app_traffic.size());
  // Committed storage reassembles to the producer's exact byte stream.
  EXPECT_EQ(replay_mismatch(ds, server.collect()), "");

  // The committed campaign carries the Begin frame's framing (the year
  // is pinned by the 2013 mid-stream test below).
  std::string error;
  const std::optional<Dataset> live = server.dataset(&error);
  ASSERT_TRUE(live.has_value()) << error;
  EXPECT_EQ(live->calendar.start_date(), ds.calendar.start_date());
  EXPECT_EQ(live->num_days(), ds.num_days());
  EXPECT_EQ(live->devices.size(), ds.devices.size());
  EXPECT_EQ(live->aps.size(), ds.aps.size());
}

// The wire carries no survey, so dataset() marks every device as not
// recruited: the survey tables render zero respondents over live data
// instead of indexing survey rows the campaign does not have.
TEST(IngestServerTest, SurveyTablesRenderZeroRespondentsOverLiveData) {
  const Dataset ds = tiny_dataset();
  IngestServer server(IngestConfig{});
  auto session = server.connect();
  SessionSink sink(*session);
  ASSERT_TRUE(replay_dataset(ds, {}, sink));
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();

  std::string error;
  std::optional<Dataset> live = server.dataset(&error);
  ASSERT_TRUE(live.has_value()) << error;
  EXPECT_TRUE(live->survey.empty());
  const Year year = live->year;
  report::Runner runner;
  runner.adopt(year, std::move(*live));
  for (const char* id : {"table02", "table08", "table09"}) {
    const report::FigureSpec* spec =
        report::FigureRegistry::instance().find(id);
    ASSERT_NE(spec, nullptr) << id;
    const report::Table t = runner.run(*spec, year);
    ASSERT_GT(t.num_rows(), 0u) << id;
    for (const auto& row : t.rows()) {
      for (const report::Value& v : row) {
        if (v.kind() == report::Value::Kind::Real) {
          EXPECT_EQ(v.as_real(), 0.0) << id;
        }
      }
    }
    for (const std::string& note : t.notes) {
      if (note.find("respondents") != std::string::npos) {
        EXPECT_TRUE(note.ends_with(": 0")) << id << ": " << note;
      }
    }
  }
}

TEST(IngestServerTest, MalformedSessionNeverTakesDownTheServer) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});

  {  // A connection feeding garbage fails alone, with a counter.
    auto bad = server.connect();
    const std::uint8_t garbage[64] = {0xDE, 0xAD, 0xBE, 0xEF};
    EXPECT_FALSE(bad->feed(garbage));
    EXPECT_FALSE(bad->error().empty());
    EXPECT_FALSE(bad->finish());
  }
  {  // Truncated mid-frame stream: clean EOF error on finish().
    auto truncated = server.connect();
    const std::vector<std::uint8_t> bytes = encode_stream(ds, 2);
    EXPECT_TRUE(truncated->feed({bytes.data(), bytes.size() - 10}));
    EXPECT_FALSE(truncated->finish());
    EXPECT_NE(truncated->error().find("before End"), std::string::npos);
  }

  // The server is still fully functional for a well-behaved session.
  auto good = server.connect();
  ASSERT_TRUE(good->feed(encode_stream(ds, 2)));
  ASSERT_TRUE(good->finish()) << good->error();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_opened, 3u);
  EXPECT_EQ(c.sessions_closed, 1u);
  EXPECT_EQ(c.sessions_failed, 2u);
  EXPECT_GE(c.frames_rejected, 1u);
  // Note the truncated session still committed its complete frames;
  // totals count records, not sessions.
  EXPECT_GT(c.records_committed, ds.samples.size());
}

TEST(IngestServerTest, ProtocolViolationsFailTheSession) {
  const Dataset ds = tiny_dataset();
  const std::vector<Sample> one = {ds.samples[4]};  // device 2

  {  // Records before Begin
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_records(DeviceId{2}, one, {}, bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("before Begin"), std::string::npos);
  }
  {  // Duplicate Begin
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(ds), bytes);
    encode_begin(begin_payload_for(ds), bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("duplicate Begin"), std::string::npos);
  }
  {  // Frame after End
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(ds), bytes);
    encode_end(bytes);
    encode_end(bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("after End"), std::string::npos);
  }
  {  // Device outside the announced universe
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(ds), bytes);
    Sample alien;
    alien.device = DeviceId{99};
    const std::vector<Sample> aliens = {alien};
    encode_records(DeviceId{99}, aliens, {}, bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("outside the announced universe"),
              std::string::npos);
  }
  {  // Bin outside the announced campaign
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    std::vector<std::uint8_t> bytes;
    encode_begin(begin_payload_for(ds), bytes);
    Sample late = ds.samples[4];
    late.bin = 2000;  // campaign has 2 * 144 bins
    const std::vector<Sample> lates = {late};
    encode_records(late.device, lates, {}, bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("outside the announced campaign"),
              std::string::npos);
  }
  {  // A campaign year the analysis does not know
    IngestServer server(IngestConfig{});
    auto s = server.connect();
    BeginPayload info = begin_payload_for(ds);
    info.year = 2016;
    std::vector<std::uint8_t> bytes;
    encode_begin(info, bytes);
    EXPECT_FALSE(s->feed(bytes));
    EXPECT_NE(s->error().find("campaign year 2016"), std::string::npos)
        << s->error();
  }
  {  // Out-of-range enum or bool bytes from a client that computes its
     // own CRC: kernels index arrays by these fields (per-category
     // volumes), so the decoder must reject them.
    const auto poison = [](auto& field) { std::memset(&field, 0xC8, 1); };
    for (int which = 0; which < 4; ++which) {
      std::vector<Sample> samples = {ds.samples[0]};  // 2 app records
      std::vector<AppTraffic> apps = {ds.app_traffic[0], ds.app_traffic[1]};
      if (which == 0) poison(apps[1].category);
      if (which == 1) poison(samples[0].wifi_state);
      if (which == 2) poison(samples[0].tech);
      if (which == 3) poison(samples[0].tethering);
      IngestServer server(IngestConfig{});
      auto s = server.connect();
      std::vector<std::uint8_t> bytes;
      encode_begin(begin_payload_for(ds), bytes);
      encode_records(DeviceId{0}, samples, apps, bytes);
      EXPECT_FALSE(s->feed(bytes)) << "case " << which;
      EXPECT_NE(s->error().find("out-of-range"), std::string::npos)
          << "case " << which << ": " << s->error();
    }
  }
}

TEST(IngestServerTest, SecondSessionMustAnnounceTheSameCampaign) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});
  auto first = server.connect();
  std::vector<std::uint8_t> begin1;
  encode_begin(begin_payload_for(ds), begin1);
  ASSERT_TRUE(first->feed(begin1));

  auto second = server.connect();
  BeginPayload other = begin_payload_for(ds);
  other.n_devices += 7;
  std::vector<std::uint8_t> begin2;
  encode_begin(other, begin2);
  EXPECT_FALSE(second->feed(begin2));
  EXPECT_NE(second->error().find("different campaign"), std::string::npos);

  // The first session is unaffected.
  std::vector<std::uint8_t> rest;
  encode_end(rest);
  EXPECT_TRUE(first->feed(rest));
  EXPECT_TRUE(first->finish()) << first->error();
  server.shutdown();
}

TEST(IngestServerTest, ShedModeDropsWithCountersInsteadOfBlocking) {
  const Dataset ds = tiny_dataset();
  IngestServer server(
      {.shards = 1, .queue_capacity = 1, .shed_on_overflow = true});
  auto session = server.connect();

  std::vector<std::uint8_t> begin;
  encode_begin(begin_payload_for(ds), begin);
  ASSERT_TRUE(session->feed(begin));
  ASSERT_TRUE(server.campaign().has_value());

  {
    // Freeze the shard: its worker parks on the first commit, so the
    // 1-slot queue fills deterministically and later frames shed.
    const auto frozen = server.freeze_shard(0);
    std::vector<std::uint8_t> frames;
    for (const Sample& s : ds.samples.span()) {
      const std::vector<Sample> one = {s};
      std::vector<Sample> rebased = one;
      std::vector<AppTraffic> apps;
      if (s.app_count > 0) {
        const auto sa = ds.apps_of(s);
        apps.assign(sa.begin(), sa.end());
        rebased[0].app_begin = 0;
      }
      frames.clear();
      encode_records(s.device, rebased, apps, frames);
      ASSERT_TRUE(session->feed(frames));  // shedding is not an error
    }
  }

  std::vector<std::uint8_t> end;
  encode_end(end);
  ASSERT_TRUE(session->feed(end));
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_GE(c.batches_shed, 1u);
  EXPECT_EQ(c.records_committed + c.records_shed, ds.samples.size());
  EXPECT_EQ(c.sessions_closed, 1u);

  // The survivors are still a campaign, with devices missing bins: the
  // index takes its non-dense path.
  std::string error;
  const std::optional<Dataset> live = server.dataset(&error);
  ASSERT_TRUE(live.has_value()) << error;
  ASSERT_TRUE(live->indexed());
  EXPECT_FALSE(live->index().dense());
  EXPECT_EQ(live->samples.size(), c.records_committed);
}

TEST(IngestServerTest, ResultIsQueryableMidStream) {
  // At 4 analysis threads a kernel over the mid-stream dataset() runs on
  // the core::parallel pool while the shard workers are live.
  struct ThreadCountGuard {
    ~ThreadCountGuard() { core::set_thread_count(0); }
  } guard;
  core::set_thread_count(4);
  const Dataset& ds = test::campaign(Year::Y2013);
  IngestServer server({.shards = 2});
  auto session = server.connect();

  const std::vector<std::uint8_t> bytes = encode_stream(ds, 512);
  const std::size_t half = bytes.size() / 2;
  ASSERT_TRUE(session->feed({bytes.data(), half}));

  // Wait until everything fed so far is committed, then query while the
  // stream is still open.
  const IngestCounters at_half = server.counters();
  wait_for([&] {
    const IngestCounters c = server.counters();
    return c.batches_committed + c.batches_shed >= at_half.frames_accepted - 1;
  });
  std::string error;
  const std::optional<Dataset> partial = server.dataset(&error);
  ASSERT_TRUE(partial.has_value()) << error;
  EXPECT_EQ(partial->year, Year::Y2013);
  const std::size_t n = partial->samples.size();
  EXPECT_GT(n, 0u);
  EXPECT_LT(n, ds.samples.size());
  EXPECT_EQ(n, server.counters().records_committed);

  // The stream is in (device, bin) order, so the committed records are a
  // prefix of the campaign: every device before the last one committed
  // is complete, and its user-day rows equal the batch rows.
  const std::vector<analysis::UserDay> live = analysis::user_days(*partial);
  const std::vector<analysis::UserDay> batch = analysis::user_days(ds);
  ASSERT_EQ(live.size(), batch.size());
  const std::size_t complete_rows =
      value(partial->samples[n - 1].device) *
      static_cast<std::size_t>(ds.num_days());
  EXPECT_GT(complete_rows, 0u);
  EXPECT_EQ(std::memcmp(live.data(), batch.data(),
                        complete_rows * sizeof(analysis::UserDay)),
            0);

  ASSERT_TRUE(session->feed({bytes.data() + half, bytes.size() - half}));
  ASSERT_TRUE(session->finish()) << session->error();
  server.shutdown();
  EXPECT_EQ(replay_mismatch(ds, server.collect()), "");
}

// Two sessions replaying the same devices commit every bin twice, so
// each device's committed stream runs backwards in time. That is not a
// campaign: dataset() comes back empty with the reason, while both
// sessions, the counters and the committed records stay intact.
TEST(IngestServerTest, ReplayedDeviceYieldsEmptyResultWithReason) {
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});
  for (int i = 0; i < 2; ++i) {
    auto session = server.connect();
    ASSERT_TRUE(session->feed(encode_stream(ds, 2)));
    ASSERT_TRUE(session->finish()) << session->error();
  }
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_closed, 2u);
  EXPECT_EQ(c.records_committed, 2 * ds.samples.size());
  EXPECT_EQ(server.collect().samples.size(), 2 * ds.samples.size());

  std::string error;
  EXPECT_FALSE(server.dataset(&error).has_value());
  EXPECT_NE(error.find("(device, bin) ordering"), std::string::npos)
      << error;
}

// --- The headline invariant: ingest commits the campaign byte for byte ---

class ReplayEquivalenceTest : public ::testing::TestWithParam<Year> {};

TEST_P(ReplayEquivalenceTest, IncrementalMatchesBatchAtOneAndFourShards) {
  const Year year = GetParam();
  const Dataset& ds = test::campaign(year);

  for (const int shards : {1, 4}) {
    IngestServer server(
        {.shards = shards, .queue_capacity = 32});
    auto session = server.connect();
    SessionSink sink(*session);
    ReplayOptions opts;
    opts.batch_records = 256;
    ASSERT_TRUE(replay_dataset(ds, opts, sink));
    ASSERT_TRUE(session->finish()) << session->error();
    server.shutdown();

    EXPECT_EQ(replay_mismatch(ds, server.collect()), "")
        << "year " << year_number(year) << ", " << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(AllYears, ReplayEquivalenceTest,
                         ::testing::Values(Year::Y2013, Year::Y2014,
                                           Year::Y2015),
                         [](const auto& info) {
                           return std::string("Y") + std::to_string(
                                      year_number(info.param));
                         });

// --- TCP transport ------------------------------------------------------

TEST(IngestTcpTest, ReplayOverLoopbackSocketMatchesBatch) {
  if (!tcp_supported()) {
    GTEST_SKIP() << "no POSIX socket support on this platform";
  }
  const Dataset& ds = test::campaign(Year::Y2013);

  IngestServer server({.shards = 2});
  TcpIngestListener listener(server);
  std::string error;
  ASSERT_TRUE(listener.start("127.0.0.1", 0, &error)) << error;
  ASSERT_NE(listener.port(), 0);

  TcpClientSink sink;
  ASSERT_TRUE(sink.connect("127.0.0.1", listener.port(), &error)) << error;
  ReplayOptions opts;
  opts.batch_records = 512;
  ReplayStats stats;
  ASSERT_TRUE(replay_dataset(ds, opts, sink, &stats));
  sink.close();  // half-close; waits for the server to finish the session

  wait_for([&] { return server.counters().sessions_closed >= 1; });
  listener.stop();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_failed, 0u);
  EXPECT_EQ(c.bytes_received, stats.bytes);
  EXPECT_EQ(c.records_committed, ds.samples.size());
  EXPECT_EQ(replay_mismatch(ds, server.collect()), "");
}

TEST(IngestTcpTest, GarbageConnectionFailsAloneServerSurvives) {
  if (!tcp_supported()) {
    GTEST_SKIP() << "no POSIX socket support on this platform";
  }
  const Dataset ds = tiny_dataset();
  IngestServer server({.shards = 2});
  TcpIngestListener listener(server);
  std::string error;
  ASSERT_TRUE(listener.start("127.0.0.1", 0, &error)) << error;

  {  // A client speaking nonsense gets dropped, counted as failed.
    TcpClientSink bad;
    ASSERT_TRUE(bad.connect("127.0.0.1", listener.port(), &error)) << error;
    const std::uint8_t junk[32] = {0x00, 0x11, 0x22};
    (void)bad.write(junk);
    bad.close();
    wait_for([&] { return server.counters().sessions_failed >= 1; });
  }

  // A well-formed stream on a fresh connection still lands.
  TcpClientSink good;
  ASSERT_TRUE(good.connect("127.0.0.1", listener.port(), &error)) << error;
  ASSERT_TRUE(replay_dataset(ds, {}, good));
  good.close();
  wait_for([&] { return server.counters().sessions_closed >= 1; });
  listener.stop();
  server.shutdown();

  const IngestCounters c = server.counters();
  EXPECT_EQ(c.sessions_failed, 1u);
  EXPECT_EQ(c.sessions_closed, 1u);
  EXPECT_EQ(c.records_committed, ds.samples.size());
}

/// One "Key: <number>" line of /proc/self/status (-1 when absent).
long proc_status(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stol(line.substr(key.size() + 1));
    }
  }
  return -1;
}

// A long-running listener joins each connection thread once it has
// served its connection. An exited but unjoined thread keeps its stack
// mapped, so without the reaping every short connection would add one
// stack to the process: the thread count and the address-space size
// must not grow with the number of connections served.
TEST(IngestTcpTest, FinishedConnectionThreadsAreReaped) {
  if (!tcp_supported()) {
    GTEST_SKIP() << "no POSIX socket support on this platform";
  }
  if (proc_status("Threads") < 0 || proc_status("VmSize") < 0) {
    GTEST_SKIP() << "no /proc/self/status on this platform";
  }
  IngestServer server({.shards = 1});
  TcpIngestListener listener(server);
  std::string error;
  ASSERT_TRUE(listener.start("127.0.0.1", 0, &error)) << error;

  constexpr int kConnections = 32;
  long threads_after_first = 0, vm_after_first = 0;
  for (int i = 0; i < kConnections; ++i) {
    TcpClientSink client;
    ASSERT_TRUE(client.connect("127.0.0.1", listener.port(), &error))
        << error;
    const std::uint8_t junk[8] = {};
    (void)client.write(junk);
    client.close();  // returns once the server closed its side
    wait_for([&] {
      return server.counters().sessions_failed >=
             static_cast<std::uint64_t>(i + 1);
    });
    if (i == 0) {
      threads_after_first = proc_status("Threads");
      vm_after_first = proc_status("VmSize");
    }
  }
  EXPECT_EQ(listener.connections(), static_cast<std::uint64_t>(kConnections));
  // At most the last connection's thread is still unjoined.
  EXPECT_LE(proc_status("Threads"), threads_after_first + 1);
  // Each leaked stack would map several MiB (8 MiB by default); allow
  // two stacks of slack for allocator noise.
  EXPECT_LT(proc_status("VmSize") - vm_after_first, 16L * 1024)
      << "kB of address space gained over " << kConnections - 1
      << " connections";
  listener.stop();
}

}  // namespace
}  // namespace tokyonet::ingest
