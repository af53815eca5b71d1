// Sharded campaign store (io/shard_store.h) + streaming runner
// (sim/stream_runner.h) + the out-of-core headline battery (a Runner
// over Runner::adopt_shards_out_of_core): byte-identity against the
// one-shot simulator at several shard counts, and the failure modes of
// the directory format.
#include "io/shard_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/context.h"
#include "analysis/query/source.h"
#include "core/records.h"
#include "core/scenario.h"
#include "io/snapshot.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "sim/simulator.h"
#include "sim/stream_runner.h"
#include "testutil.h"

namespace tokyonet {
namespace {

namespace fs = std::filesystem;

constexpr double kShardTestScale = 0.02;

using test::TempDir;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void flip_byte(const fs::path& p, std::uintmax_t offset) {
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

/// Streams `config` into `dir` with `shards` shards and returns the
/// open store (asserts success).
io::ShardedDataset stream_and_open(const ScenarioConfig& config,
                                   const fs::path& dir, std::size_t shards) {
  sim::StreamCampaignOptions opts;
  opts.shards = shards;
  const sim::StreamCampaignResult w = sim::stream_campaign(config, dir, opts);
  EXPECT_TRUE(w.ok()) << w.error;
  io::ShardedDataset store;
  const io::SnapshotResult r = io::ShardedDataset::open(dir, store);
  EXPECT_TRUE(r.ok()) << r.error;
  return store;
}

/// The headline battery of `tokyonet report` (table01, fig02, fig05,
/// table04, sec35_opportunity, + fig18 for the 2015 campaign), rendered
/// by a Runner that scans the store at `dir` out of core with
/// `resident_shards` = K. On failure `out` is left empty and the scan's
/// error is returned.
io::SnapshotResult run_battery_out_of_core(Year year, const fs::path& dir,
                                           std::vector<report::Table>& out,
                                           std::size_t resident_shards = 1) {
  out.clear();
  report::Runner runner;
  if (io::SnapshotResult r =
          runner.adopt_shards_out_of_core(year, dir, resident_shards);
      !r.ok()) {
    return r;
  }
  std::vector<report::Table> tables;
  try {
    for (const char* id : {"table01", "fig02", "fig05", "table04",
                           "sec35_opportunity", "fig18"}) {
      if (std::string_view(id) == "fig18" && year != Year::Y2015) continue;
      tables.push_back(
          runner.run(*report::FigureRegistry::instance().find(id), year));
    }
  } catch (const analysis::query::SourceError& e) {
    return e.result();
  }
  out = std::move(tables);
  return {};
}

// --- Byte identity -----------------------------------------------------

class ShardRoundTrip : public ::testing::TestWithParam<std::size_t> {};

// Field tuples for value comparison of the small record arrays.
// (memcmp would compare struct padding too, which is unspecified
// between independently constructed datasets — see snapshot_test.cc.)
auto fields(const DeviceInfo& d) {
  return std::tuple(d.id, d.os, d.carrier, d.recruited);
}
auto fields(const AppTraffic& t) {
  return std::tuple(t.category, t.rx_bytes, t.tx_bytes);
}
auto fields(const SurveyResponse& s) {
  return std::tuple(s.occupation, s.connected[0], s.connected[1],
                    s.connected[2], s.reasons[0], s.reasons[1], s.reasons[2]);
}
auto fields(const ApTruth& t) { return std::tuple(t.placement, t.cell); }
auto fields(const DeviceTruth& t) {
  return std::tuple(t.archetype, t.occupation, t.has_home_ap, t.home_ap,
                    t.works_at_office, t.office_has_byod_wifi, t.office_ap,
                    t.home_cell, t.office_cell, t.wifi_off_propensity,
                    t.demand_mu, t.demand_sigma, t.uses_public_wifi,
                    t.update_bin, t.capped_day, t.is_tetherer);
}

/// Concatenates every shard of `store` into one Dataset with global
/// device ids and rebased app-traffic offsets — the test's oracle for
/// the partition-invariance claim (the store itself is only ever read
/// shard by shard).
Dataset concat_shards(io::ShardedDataset& store) {
  Dataset out;
  out.year = store.year();
  out.calendar = store.calendar();
  for (std::size_t i = 0; i < store.num_shards(); ++i) {
    Dataset shard;
    const io::SnapshotResult r = store.load_shard(i, shard);
    EXPECT_TRUE(r.ok()) << r.error;
    // Every shard carries the shared universe; take it once.
    if (i == 0) out.truth.aps = shard.truth.aps;
    const std::size_t device_base = store.device_begin(i);
    const auto app_base = static_cast<std::uint32_t>(out.app_traffic.size());
    for (DeviceInfo d : shard.devices) {
      d.id = DeviceId{static_cast<std::uint32_t>(device_base + value(d.id))};
      out.devices.push_back(d);
    }
    out.survey.insert(out.survey.end(), shard.survey.begin(),
                      shard.survey.end());
    out.truth.devices.insert(out.truth.devices.end(),
                             shard.truth.devices.begin(),
                             shard.truth.devices.end());
    out.app_traffic.insert(out.app_traffic.cend(), shard.app_traffic.begin(),
                           shard.app_traffic.end());
    // Device ids always rebase; app_begin only for Android devices — iOS
    // samples keep app_begin = 0, exactly as the simulator's splice
    // leaves them.
    for (Sample s : shard.samples) {
      const std::size_t local = value(s.device);
      s.device = DeviceId{static_cast<std::uint32_t>(device_base + local)};
      if (shard.devices[local].os == Os::Android) s.app_begin += app_base;
      out.samples.push_back(s);
    }
  }
  out.aps = store.universe_aps();
  return out;
}

template <typename T>
void expect_elements_equal(std::span<const T> a, std::span<const T> b,
                           const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fields(a[i]) != fields(b[i])) {
      ADD_FAILURE() << what << " differs at element " << i;
      return;
    }
  }
}

// The partition-invariance claim: a campaign streamed shard by shard
// and read back through load_shard() — concatenated here by the test's
// own oracle — equals the one-shot in-memory simulation: the packed
// sample column byte for byte, everything else field for field, at any
// shard count.
TEST_P(ShardRoundTrip, MaterializedMatchesSimulator) {
  const std::size_t shards = GetParam();
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store =
      stream_and_open(config, tmp.path / "store", shards);
  ASSERT_EQ(store.num_shards(), shards);
  ASSERT_EQ(store.manifest().scenario_hash, scenario_hash(config));

  const Dataset materialized = concat_shards(store);
  const Dataset fresh = sim::Simulator(config).run();
  ASSERT_EQ(materialized.devices.size(), fresh.devices.size());
  EXPECT_EQ(materialized.year, fresh.year);
  EXPECT_EQ(materialized.num_days(), fresh.num_days());

  // The sample stream is packed (no padding): compare raw bytes.
  ASSERT_EQ(materialized.samples.size(), fresh.samples.size());
  EXPECT_EQ(std::memcmp(materialized.samples.span().data(),
                        fresh.samples.span().data(),
                        fresh.samples.span().size_bytes()),
            0)
      << "sample bytes differ at shard count " << shards;

  expect_elements_equal(std::span<const DeviceInfo>(materialized.devices),
                        std::span<const DeviceInfo>(fresh.devices),
                        "devices");
  expect_elements_equal(materialized.app_traffic.span(),
                        fresh.app_traffic.span(), "app_traffic");
  expect_elements_equal(std::span<const SurveyResponse>(materialized.survey),
                        std::span<const SurveyResponse>(fresh.survey),
                        "survey");
  expect_elements_equal(std::span<const ApTruth>(materialized.truth.aps),
                        std::span<const ApTruth>(fresh.truth.aps),
                        "truth.aps");
  expect_elements_equal(
      std::span<const DeviceTruth>(materialized.truth.devices),
      std::span<const DeviceTruth>(fresh.truth.devices), "truth.devices");
  ASSERT_EQ(materialized.aps.size(), fresh.aps.size());
  for (std::size_t i = 0; i < fresh.aps.size(); ++i) {
    ASSERT_EQ(materialized.aps[i].bssid, fresh.aps[i].bssid) << i;
    ASSERT_EQ(materialized.aps[i].essid, fresh.aps[i].essid) << i;
    ASSERT_EQ(materialized.aps[i].band, fresh.aps[i].band) << i;
    ASSERT_EQ(materialized.aps[i].channel, fresh.aps[i].channel) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardRoundTrip,
                         ::testing::Values(std::size_t{1}, std::size_t{4},
                                           std::size_t{16}),
                         [](const auto& info) {
                           return "Shards" + std::to_string(info.param);
                         });

// load_shard serves shard-local device ids over the shared universe;
// per-shard totals must match the manifest's entries.
TEST(ShardStore, LoadShardServesLocalSlices) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);

  std::size_t devices = 0;
  std::uint64_t samples = 0;
  for (std::size_t i = 0; i < store.num_shards(); ++i) {
    Dataset shard;
    const io::SnapshotResult r = store.load_shard(i, shard);
    ASSERT_TRUE(r.ok()) << r.error;
    const io::ShardEntry& e = store.manifest().shards[i];
    EXPECT_EQ(shard.devices.size(), e.device_count);
    EXPECT_EQ(shard.samples.size(), e.n_samples);
    EXPECT_EQ(shard.aps.size(), store.universe_aps().size());
    EXPECT_TRUE(shard.indexed());
    // Local ids start at 0 in every shard.
    ASSERT_FALSE(shard.devices.empty());
    EXPECT_EQ(value(shard.devices.front().id), 0u);
    devices += shard.devices.size();
    samples += shard.samples.size();
  }
  EXPECT_EQ(devices, store.manifest().n_devices);
  EXPECT_EQ(samples, store.manifest().n_samples);
}

// --- Out-of-core battery ----------------------------------------------

// Every table the sharded battery emits must render to the same
// canonical JSON as the in-memory registry path over the same campaign.
TEST(ShardStore, OutOfCoreBatteryMatchesRunner) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 5);

  std::vector<report::Table> tables;
  const io::SnapshotResult b =
      run_battery_out_of_core(store.year(), tmp.path / "store", tables);
  ASSERT_TRUE(b.ok()) << b.error;
  ASSERT_EQ(tables.size(), 6u);  // 2015: headline five + fig18

  report::Runner::Options opt;
  opt.scale = kShardTestScale;
  report::Runner runner(opt);
  const auto& registry = report::FigureRegistry::instance();
  for (const report::Table& t : tables) {
    const report::FigureSpec* spec = registry.find(t.id);
    ASSERT_NE(spec, nullptr) << t.id;
    EXPECT_EQ(report::to_canonical_json(t),
              report::to_canonical_json(runner.run(*spec, Year::Y2015)))
        << t.id;
  }
}

// The 2013 campaign has no in-campaign iOS release: no fig18.
TEST(ShardStore, OutOfCoreBatterySkipsFig18Before2015) {
  const ScenarioConfig config =
      scenario_config(Year::Y2013, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 2);
  std::vector<report::Table> tables;
  ASSERT_TRUE(
      run_battery_out_of_core(store.year(), tmp.path / "store", tables).ok());
  ASSERT_EQ(tables.size(), 5u);
  for (const report::Table& t : tables) EXPECT_NE(t.id, "fig18");
}

// Runner::adopt_shards_out_of_core refuses a store for a different
// campaign year.
TEST(ShardStore, AdoptShardsChecksYear) {
  const ScenarioConfig config =
      scenario_config(Year::Y2014, kShardTestScale);
  TempDir tmp;
  sim::StreamCampaignOptions opts;
  opts.shards = 2;
  ASSERT_TRUE(sim::stream_campaign(config, tmp.path / "store", opts).ok());

  report::Runner wrong;
  EXPECT_FALSE(
      wrong.adopt_shards_out_of_core(Year::Y2015, tmp.path / "store").ok());
  report::Runner right;
  ASSERT_TRUE(
      right.adopt_shards_out_of_core(Year::Y2014, tmp.path / "store").ok());
  EXPECT_EQ(right.analysis(Year::Y2014).source().year(), Year::Y2014);
}

// --- Failure modes -----------------------------------------------------

struct BrokenStore : ::testing::Test {
  TempDir tmp;
  fs::path dir;
  ScenarioConfig config = scenario_config(Year::Y2015, kShardTestScale);

  void SetUp() override {
    dir = tmp.path / "store";
    sim::StreamCampaignOptions opts;
    opts.shards = 3;
    ASSERT_TRUE(sim::stream_campaign(config, dir, opts).ok());
  }

  [[nodiscard]] std::string open_error() const {
    io::ShardedDataset store;
    const io::SnapshotResult r = io::ShardedDataset::open(dir, store);
    EXPECT_FALSE(r.ok());
    return r.error;
  }
};

TEST_F(BrokenStore, TruncatedShardFileRejected) {
  const fs::path shard = dir / "shard-0001.tksnap";
  fs::resize_file(shard, fs::file_size(shard) - 64);
  EXPECT_NE(open_error().find("shard-0001"), std::string::npos);
}

TEST_F(BrokenStore, ShardScenarioHashMismatchRejected) {
  io::ShardManifest m;
  ASSERT_TRUE(io::read_shard_manifest(dir, m).ok());
  m.scenario_hash ^= 1;
  // write_shard_manifest deliberately writes whatever it is given;
  // verification must catch the disagreement with the shard headers.
  ASSERT_TRUE(io::write_shard_manifest(m, dir).ok());
  EXPECT_NE(open_error().find("scenario hash"), std::string::npos);
}

TEST_F(BrokenStore, OverlappingDeviceRangesRejected) {
  io::ShardManifest m;
  ASSERT_TRUE(io::read_shard_manifest(dir, m).ok());
  ASSERT_GE(m.shards.size(), 2u);
  m.shards[1].device_begin -= 1;  // overlaps shard 0's range
  ASSERT_TRUE(io::write_shard_manifest(m, dir).ok());
  io::ShardManifest reread;
  const io::SnapshotResult r = io::read_shard_manifest(dir, reread);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("range"), std::string::npos) << r.error;
}

// A writer killed mid-stream never wrote MANIFEST.tks (it is the
// commit record, written last via tmp + rename): the partial directory
// must be detected and rejected, stray .tmp files notwithstanding.
TEST_F(BrokenStore, MissingManifestAfterKilledWriterRejected) {
  std::ofstream(dir / "MANIFEST.tks.tmp") << "half-written";
  fs::remove(dir / io::kShardManifestName);
  EXPECT_FALSE(io::is_shard_dir(dir));
  EXPECT_NE(open_error().find("MANIFEST.tks"), std::string::npos);
}

TEST_F(BrokenStore, ManifestChecksumFlipRejected) {
  const fs::path manifest = dir / io::kShardManifestName;
  flip_byte(manifest, fs::file_size(manifest) / 2);
  EXPECT_NE(open_error().find("checksum"), std::string::npos);
}

TEST_F(BrokenStore, ShardPayloadCorruptionCaughtOnLoad) {
  // Header-only verification passes open(); the payload flip must be
  // caught when the shard is actually loaded (section checksums).
  io::ShardedDataset store;
  ASSERT_TRUE(io::ShardedDataset::open(dir, store).ok());
  const fs::path shard = dir / "shard-0002.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);
  Dataset out;
  const io::SnapshotResult r = store.load_shard(2, out);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("checksum"), std::string::npos) << r.error;
}

// A shard rewritten with an out-of-range wifi_state and re-sealed (file
// checksums and the manifest entry both match) passes open(); the shard
// loader ends in validate_and_index(), so the campaign contract still
// rejects it on load.
TEST_F(BrokenStore, SealedContractViolationRejectedOnLoad) {
  const fs::path shard = dir / "shard-0001.tksnap";
  io::SnapshotLoadOptions raw;
  raw.defer_validate = true;  // a shard file alone has no AP universe
  Dataset ds;
  ASSERT_TRUE(io::load_snapshot(shard, ds, raw).ok());
  ASSERT_FALSE(ds.samples.empty());
  std::memset(&ds.samples[0].wifi_state, 200, 1);

  io::ShardManifest m;
  ASSERT_TRUE(io::read_shard_manifest(dir, m).ok());
  ASSERT_TRUE(io::save_snapshot(ds, shard, m.scenario_hash).ok());
  io::SnapshotInfo info;
  ASSERT_TRUE(io::read_snapshot_info(shard, info).ok());
  m.shards[1].file_bytes = info.file_bytes;
  m.shards[1].header_checksum = info.header_checksum;
  ASSERT_TRUE(io::write_shard_manifest(m, dir).ok());

  io::ShardedDataset store;
  const io::SnapshotResult opened = io::ShardedDataset::open(dir, store);
  ASSERT_TRUE(opened.ok()) << opened.error;
  Dataset out;
  const io::SnapshotResult r = store.load_shard(1, out);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("invalid shard dataset: "), std::string::npos)
      << r.error;
  EXPECT_NE(r.error.find("wifi_state"), std::string::npos) << r.error;
}

// --- Pipelined scan (DESIGN.md §5j) ------------------------------------
// Suite names carry the ShardPipeline prefix so the TSan CI job can
// select the prefetcher / parallel-scan coverage by regex.

// The prefetcher walks shards strictly in order and delivers each one
// fully loaded (universe installed, validated, indexed).
TEST(ShardPipeline, PrefetcherDeliversShardsInOrder) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);

  io::ShardPrefetcher prefetcher(store, 2);
  io::ShardPrefetcher::Loaded item;
  std::size_t expected = 0;
  while (prefetcher.next(item)) {
    ASSERT_TRUE(item.result.ok()) << item.result.error;
    EXPECT_EQ(item.index, expected);
    EXPECT_TRUE(item.dataset.indexed());
    EXPECT_EQ(item.dataset.devices.size(),
              store.manifest().shards[item.index].device_count);
    EXPECT_NE(item.token, nullptr);
    ++expected;
  }
  EXPECT_EQ(expected, store.num_shards());
}

// A corrupt shard is delivered at its position carrying the error, then
// the prefetcher stops: the consumer sees the failure in order, with
// nothing queued behind it and no hang.
TEST(ShardPipeline, PrefetcherSurfacesCorruptShardInOrder) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);
  const fs::path shard = tmp.path / "store" / "shard-0002.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);

  io::ShardPrefetcher prefetcher(store, 2);
  io::ShardPrefetcher::Loaded item;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(prefetcher.next(item));
    EXPECT_EQ(item.index, i);
    EXPECT_TRUE(item.result.ok()) << item.result.error;
  }
  ASSERT_TRUE(prefetcher.next(item));
  EXPECT_EQ(item.index, 2u);
  EXPECT_FALSE(item.result.ok());
  EXPECT_NE(item.result.error.find("checksum"), std::string::npos)
      << item.result.error;
  EXPECT_FALSE(prefetcher.next(item));
}

// A failed load surfaces as a clean error on the scanning thread at
// every residency budget — sequential, prefetched and K-parallel — and
// never leaves a partial fold behind.
TEST(ShardPipeline, ScanErrorIsCleanAtEveryResidency) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 4);
  const fs::path shard = tmp.path / "store" / "shard-0001.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);

  for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                              std::size_t{4}}) {
    analysis::query::ShardedSource src(store, k);
    analysis::AnalysisContext ctx(src);
    try {
      (void)ctx.devices();
      ADD_FAILURE() << "scan must fail, resident_shards=" << k;
    } catch (const analysis::query::SourceError& e) {
      EXPECT_NE(e.result().error.find("checksum"), std::string::npos)
          << "resident_shards=" << k << ": " << e.result().error;
    }

    std::vector<report::Table> tables;
    const io::SnapshotResult b =
        run_battery_out_of_core(store.year(), tmp.path / "store", tables, k);
    EXPECT_FALSE(b.ok()) << "resident_shards=" << k;
    EXPECT_NE(b.error.find("checksum"), std::string::npos)
        << "resident_shards=" << k << ": " << b.error;
    EXPECT_TRUE(tables.empty()) << "resident_shards=" << k;
  }
}

// The K-parallel scan's per-shard partials fold in shard order, so its
// battery is byte-identical to the strict sequential scan. (This is the
// concurrency stress the TSan job runs; the full shards x residency
// matrix lives in ShardScanMatrix below.)
TEST(ShardPipeline, ParallelScanMatchesSequential) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 16);

  const fs::path dir = tmp.path / "store";
  std::vector<report::Table> sequential;
  ASSERT_TRUE(run_battery_out_of_core(store.year(), dir, sequential, 0).ok());
  std::vector<report::Table> parallel;
  ASSERT_TRUE(run_battery_out_of_core(store.year(), dir, parallel, 4).ok());
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(report::to_canonical_json(parallel[i]),
              report::to_canonical_json(sequential[i]))
        << sequential[i].id;
  }
}

// The writer pipeline (simulate block i+1 while block i serializes)
// must not change a single byte of the store: same manifest, same shard
// files as the strictly sequential writer.
TEST(ShardPipeline, StreamWriterPipelineMatchesSequential) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  sim::StreamCampaignOptions pipelined;
  pipelined.shards = 3;
  ASSERT_TRUE(
      sim::stream_campaign(config, tmp.path / "piped", pipelined).ok());
  sim::StreamCampaignOptions sequential;
  sequential.shards = 3;
  sequential.pipeline = false;
  ASSERT_TRUE(
      sim::stream_campaign(config, tmp.path / "seq", sequential).ok());

  for (const char* name :
       {"MANIFEST.tks", "universe.tksnap", "shard-0000.tksnap",
        "shard-0001.tksnap", "shard-0002.tksnap"}) {
    EXPECT_EQ(read_file(tmp.path / "piped" / name),
              read_file(tmp.path / "seq" / name))
        << name;
  }
}

// The full determinism matrix: the out-of-core battery's canonical JSON
// must byte-match the in-memory registry rendering at every shard count
// x residency budget (the thread dimension comes from the
// shard_scan_threads{1,4} ctest entries re-running this suite under
// TOKYONET_THREADS).
TEST(ShardScanMatrix, BatteryByteIdenticalAcrossShardsAndResidency) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);

  // In-memory reference, rendered once.
  report::Runner::Options opt;
  opt.scale = kShardTestScale;
  report::Runner runner(opt);
  const auto& registry = report::FigureRegistry::instance();

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    TempDir tmp;
    io::ShardedDataset store =
        stream_and_open(config, tmp.path / "store", shards);
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{4}}) {
      std::vector<report::Table> tables;
      const io::SnapshotResult b = run_battery_out_of_core(
          store.year(), tmp.path / "store", tables, k);
      ASSERT_TRUE(b.ok()) << "shards=" << shards << " K=" << k << ": "
                          << b.error;
      ASSERT_EQ(tables.size(), 6u) << "shards=" << shards << " K=" << k;
      for (const report::Table& t : tables) {
        const report::FigureSpec* spec = registry.find(t.id);
        ASSERT_NE(spec, nullptr) << t.id;
        EXPECT_EQ(report::to_canonical_json(t),
                  report::to_canonical_json(runner.run(*spec, Year::Y2015)))
            << t.id << " shards=" << shards << " K=" << k;
      }
    }
  }
}

// --- Once-per-open payload verification --------------------------------

// The first load of a shard rehashes every section; later loads of the
// same shard in the same open skip the rehash (header and manifest
// identity checks still run). Observable: corrupting the payload
// *after* a verified load must not produce a checksum error on reload,
// while a fresh open catches it again.
TEST(ShardStore, PayloadVerifiedOncePerOpen) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 3);

  Dataset out;
  ASSERT_TRUE(store.load_shard(0, out).ok());
  const fs::path shard = tmp.path / "store" / "shard-0000.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);

  // Reload skips the rehash: no checksum error. (The flipped byte may
  // still trip structural validation, which is fine — the point is that
  // the section rehash did not run.)
  const io::SnapshotResult again = store.load_shard(0, out);
  EXPECT_EQ(again.error.find("checksum"), std::string::npos) << again.error;

  // A fresh open starts a fresh verification epoch and catches it.
  io::ShardedDataset reopened;
  ASSERT_TRUE(io::ShardedDataset::open(tmp.path / "store", reopened).ok());
  const io::SnapshotResult fresh = reopened.load_shard(0, out);
  EXPECT_FALSE(fresh.ok());
  EXPECT_NE(fresh.error.find("checksum"), std::string::npos) << fresh.error;
}

// TOKYONET_SHARD_VERIFY=always (read at open()) restores the rehash on
// every load.
TEST(ShardStore, ShardVerifyAlwaysRestoresRehash) {
  const ScenarioConfig config =
      scenario_config(Year::Y2015, kShardTestScale);
  TempDir tmp;
  ASSERT_EQ(::setenv("TOKYONET_SHARD_VERIFY", "always", 1), 0);
  io::ShardedDataset store = stream_and_open(config, tmp.path / "store", 3);
  ASSERT_EQ(::unsetenv("TOKYONET_SHARD_VERIFY"), 0);

  Dataset out;
  ASSERT_TRUE(store.load_shard(0, out).ok());
  const fs::path shard = tmp.path / "store" / "shard-0000.tksnap";
  flip_byte(shard, fs::file_size(shard) - 128);

  const io::SnapshotResult again = store.load_shard(0, out);
  EXPECT_FALSE(again.ok());
  EXPECT_NE(again.error.find("checksum"), std::string::npos) << again.error;
}

}  // namespace
}  // namespace tokyonet
