// The columnar query layer (analysis/query/): the shared chunk/block
// geometry, the DataSource fold/reduce primitives, and the two
// execution backends' byte-identity contract — in-memory chunked
// parallel at any thread count, out-of-core over a sharded store at
// any residency budget.
#include "analysis/query/scan.h"
#include "analysis/query/source.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <utility>
#include <vector>

#include "analysis/aggregate.h"
#include "core/parallel.h"
#include "core/records.h"
#include "core/scenario.h"
#include "io/shard_store.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "sim/simulator.h"
#include "sim/stream_runner.h"
#include "testutil.h"

namespace tokyonet {
namespace {

namespace fs = std::filesystem;
namespace query = analysis::query;

constexpr double kQueryTestScale = 0.02;

using test::TempDir;

/// Restores the environment-derived thread count on scope exit.
struct ThreadCountGuard {
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

// --- Chunk / device-block geometry -------------------------------------

TEST(QueryScan, ChunkGeometryCoversRangeExactlyOnce) {
  EXPECT_EQ(query::num_chunks(0), 0u);
  EXPECT_EQ(query::num_chunks(1), 1u);
  EXPECT_EQ(query::num_chunks(query::kScanChunk), 1u);
  EXPECT_EQ(query::num_chunks(query::kScanChunk + 1), 2u);

  // A range straddling two chunk boundaries: three partials, the last
  // one short, covering [0, n) exactly once in order.
  const std::size_t n = 2 * query::kScanChunk + 7;
  const auto ranges = query::map_chunks(
      n, [](std::size_t b, std::size_t e) { return std::pair(b, e); });
  ASSERT_EQ(ranges.size(), 3u);
  std::size_t expected_begin = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_GT(e, b);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, n);
  EXPECT_EQ(ranges.back().second - ranges.back().first, 7u);
}

TEST(QueryScan, DeviceBlockGeometryCoversRangeExactlyOnce) {
  EXPECT_EQ(query::num_device_blocks(0), 0u);
  EXPECT_EQ(query::num_device_blocks(query::kDeviceBlock), 1u);

  const std::size_t n = 2 * query::kDeviceBlock + 5;
  const auto ranges = query::map_device_blocks(
      n, [](std::size_t b, std::size_t e) { return std::pair(b, e); });
  ASSERT_EQ(ranges.size(), 3u);
  std::size_t expected_begin = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expected_begin);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, n);
  EXPECT_EQ(ranges.back().second - ranges.back().first, 5u);
}

// The partition depends only on the input size, so the partial vector —
// not just its reduction — is identical at any thread count.
TEST(QueryScan, PartialsAreThreadCountInvariant) {
  ThreadCountGuard guard;
  const std::size_t n = 3 * query::kScanChunk + 1234;
  const auto sum_range = [](std::size_t b, std::size_t e) {
    std::uint64_t sum = 0;
    for (std::size_t i = b; i < e; ++i) sum += i;
    return sum;
  };
  core::set_thread_count(1);
  const auto serial = query::map_chunks(n, sum_range);
  core::set_thread_count(4);
  const auto parallel = query::map_chunks(n, sum_range);
  EXPECT_EQ(serial, parallel);
}

// --- In-memory backend --------------------------------------------------

// An empty campaign is one empty block at base 0: kernels see zero
// devices/samples and produce their zero shapes without special cases.
TEST(QuerySource, EmptyDatasetYieldsZeroShapes) {
  Dataset ds;  // no devices, no samples, zero-day calendar
  test::build_index(ds);
  const query::InMemorySource src(ds);
  EXPECT_EQ(src.dataset_or_null(), &ds);
  EXPECT_EQ(src.n_devices(), 0u);
  EXPECT_EQ(src.n_samples(), 0u);
  EXPECT_EQ(src.num_days(), 0);

  const analysis::AllStreamSums sums = analysis::aggregate_all_streams(src);
  for (const auto& hour_sums : sums.hour_sums) EXPECT_TRUE(hour_sums.empty());
  EXPECT_EQ(sums.lte.total, 0u);
  EXPECT_EQ(sums.lte.lte, 0u);

  int blocks = 0;
  std::size_t devices = 0;
  src.fold<std::size_t>(
      [](const Dataset& block, std::size_t base) {
        EXPECT_EQ(base, 0u);
        return block.devices.size();
      },
      [&](std::size_t&& n, std::size_t) {
        ++blocks;
        devices += n;
      });
  EXPECT_EQ(blocks, 1);  // the in-memory backend always delivers one block
  EXPECT_EQ(devices, 0u);
}

// A single device (smaller than one 16-device block): the hand-built
// campaign's hour sums must match a plain serial accumulation.
TEST(QuerySource, SingleDeviceMatchesSerialReference) {
  Dataset ds;
  ds.year = Year::Y2015;
  ds.calendar = CampaignCalendar(Date{2015, 2, 1}, 2);
  ds.devices.push_back(DeviceInfo{});
  ds.survey.emplace_back();
  ds.truth.devices.emplace_back();
  ds.truth.devices.back().capped_day.assign(2, 0);

  std::vector<std::uint64_t> expected(
      static_cast<std::size_t>(ds.num_days()) * 24, 0);
  for (TimeBin bin : {TimeBin{0}, TimeBin{5}, TimeBin{6}, TimeBin{200}}) {
    Sample s;
    s.device = DeviceId{0};
    s.bin = bin;
    s.cell_rx = 1000u + bin;
    ds.samples.push_back(s);
    expected[static_cast<std::size_t>(bin / kBinsPerHour)] += s.cell_rx;
  }
  test::build_index(ds);

  const query::InMemorySource src(ds);
  EXPECT_EQ(src.n_devices(), 1u);
  const analysis::AllStreamSums sums = analysis::aggregate_all_streams(src);
  EXPECT_EQ(sums.hour_sums[0], expected);
  for (int stream = 1; stream < 4; ++stream) {
    for (std::uint64_t v : sums.hour_sums[stream]) EXPECT_EQ(v, 0u);
  }
}

// A simulated campaign big enough that device sample ranges straddle
// the 64K chunk boundary: the chunked scan at 4 threads must reproduce
// the 1-thread bytes exactly.
TEST(QuerySource, ChunkStraddlingScanIsThreadCountInvariant) {
  ThreadCountGuard guard;
  const ScenarioConfig config =
      scenario_config(Year::Y2013, kQueryTestScale);
  const Dataset ds = sim::Simulator(config).run();
  // The premise of the test: more samples than one chunk, so at least
  // one device range crosses a chunk boundary.
  ASSERT_GT(ds.samples.size(), query::kScanChunk);
  const query::InMemorySource src(ds);

  core::set_thread_count(1);
  const analysis::AllStreamSums serial = analysis::aggregate_all_streams(src);
  core::set_thread_count(4);
  const analysis::AllStreamSums parallel =
      analysis::aggregate_all_streams(src);
  for (int stream = 0; stream < 4; ++stream) {
    EXPECT_EQ(serial.hour_sums[stream], parallel.hour_sums[stream]);
  }
  EXPECT_EQ(serial.lte.total, parallel.lte.total);
  EXPECT_EQ(serial.lte.lte, parallel.lte.lte);
}

// --- Out-of-core backend ------------------------------------------------

// The same campaign streamed into a 3-shard store and scanned out of
// core must reproduce the in-memory kernel byte for byte at every
// residency budget, and an out-of-core figure rendering through the
// Runner must byte-match the in-memory registry path.
TEST(QueryOutOfCore, ThreeShardStoreMatchesInMemory) {
  const ScenarioConfig config =
      scenario_config(Year::Y2013, kQueryTestScale);
  TempDir tmp;
  sim::StreamCampaignOptions opts;
  opts.shards = 3;
  ASSERT_TRUE(sim::stream_campaign(config, tmp.path / "store", opts).ok());
  io::ShardedDataset store;
  ASSERT_TRUE(io::ShardedDataset::open(tmp.path / "store", store).ok());
  ASSERT_EQ(store.num_shards(), 3u);

  const Dataset ds = sim::Simulator(config).run();
  const query::InMemorySource mem(ds);
  const analysis::AllStreamSums expected =
      analysis::aggregate_all_streams(mem);

  for (const std::size_t k :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    const query::ShardedSource src(store, k);
    EXPECT_EQ(src.dataset_or_null(), nullptr);
    EXPECT_EQ(src.n_devices(), ds.devices.size());
    EXPECT_EQ(src.n_samples(), ds.samples.size());
    const analysis::AllStreamSums ooc = analysis::aggregate_all_streams(src);
    for (int stream = 0; stream < 4; ++stream) {
      EXPECT_EQ(ooc.hour_sums[stream], expected.hour_sums[stream])
          << "stream=" << stream << " resident_shards=" << k;
    }
    EXPECT_EQ(ooc.lte.total, expected.lte.total) << "resident_shards=" << k;
    EXPECT_EQ(ooc.lte.lte, expected.lte.lte) << "resident_shards=" << k;
  }

  // Figure-level identity through Runner::adopt_shards_out_of_core.
  report::Runner::Options opt;
  opt.scale = kQueryTestScale;
  report::Runner in_memory(opt);
  report::Runner out_of_core(opt);
  ASSERT_TRUE(
      out_of_core.adopt_shards_out_of_core(Year::Y2013, tmp.path / "store", 1)
          .ok());
  EXPECT_TRUE(out_of_core.out_of_core(Year::Y2013));
  EXPECT_THROW((void)out_of_core.dataset(Year::Y2013), std::logic_error);
  const auto& registry = report::FigureRegistry::instance();
  for (const char* id : {"table01", "fig02", "fig12"}) {
    const report::FigureSpec* spec = registry.find(id);
    ASSERT_NE(spec, nullptr) << id;
    ASSERT_TRUE(spec->out_of_core) << id;
    EXPECT_EQ(
        report::to_canonical_json(out_of_core.run(*spec, Year::Y2013)),
        report::to_canonical_json(in_memory.run(*spec, Year::Y2013)))
        << id;
  }
}

}  // namespace
}  // namespace tokyonet
