// The benchmark workloads, the layer probes and the golden check.
//
// Every workload follows the same shape: set up its inputs kSetups
// times (setup_s is their median), render the reference outputs once,
// then run timed passes until --seconds have elapsed and a minimum
// number of passes ran. Every timed output is compared with the
// reference byte for byte, and every mismatch or thrown error counts as
// a failed operation. With --trace 1 the passes alternate untraced and
// traced (the difference of their medians is the tracing overhead), and
// probes over the workload's own data then time each layer it uses.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>

#include "analysis/context.h"
#include "analysis/query/source.h"
#include "bench.h"
#include "core/hash.h"
#include "core/scenario.h"
#include "ingest/replay.h"
#include "ingest/server.h"
#include "io/shard_store.h"
#include "io/snapshot.h"
#include "report/golden.h"
#include "report/registry.h"
#include "report/runner.h"
#include "report/table.h"
#include "sim/simulator.h"
#include "sim/stream_runner.h"

namespace perfbench {

namespace fs = std::filesystem;
using tokyonet::Dataset;
using tokyonet::ScenarioConfig;
using tokyonet::Year;
using tokyonet::report::FigureRegistry;
using tokyonet::report::FigureSpec;
using tokyonet::report::Runner;

namespace {

constexpr int kSetups = 3;
// Bytes per Session::feed() call in the sweep's ingest session.
constexpr std::size_t kFeedChunk = std::size_t{8} << 20;

/// Campaign scale of both workloads (all three years); --tiny shrinks
/// it for the self-test.
double catalog_scale(const Options& o) { return o.tiny ? 0.05 : 0.5; }

/// The sweep's ingest session: two shards (feeder, pump and workers fit
/// in four cores) and one frame per device (a 2015 device logs 3744
/// samples).
constexpr int kIngestShards = 2;
constexpr std::size_t kClientBatch = 4096;

/// The sweep's out-of-core store: shards and resident-shard budget K
/// (the CLI's default K = 1, so the prefetcher runs).
constexpr std::size_t kSweepShards = 4;
constexpr std::size_t kSweepResidentShards = 1;

ScenarioConfig config(Year y, double scale, std::uint64_t seed) {
  ScenarioConfig c = tokyonet::scenario_config(y, scale);
  c.seed = seed;
  return c;
}

Runner::Options runner_options(double scale, std::uint64_t seed) {
  Runner::Options ro;
  ro.scale = scale;
  ro.seed = seed;
  ro.announce_cache = false;
  return ro;
}

std::string label(const FigureSpec& spec, std::optional<Year> y) {
  return y ? spec.id + "_" + std::to_string(tokyonet::year_number(*y))
           : spec.id;
}

double renderings(const FigureSpec& spec) {
  return spec.per_year() ? static_cast<double>(spec.years.size()) : 1.0;
}

/// Renders one figure to canonical JSON; nullopt (with the error in the
/// report's log) when it throws.
std::optional<std::string> render(Runner& r, const FigureSpec& spec,
                                  std::optional<Year> y, bool stacked,
                                  Report& rep) {
  try {
    return tokyonet::report::to_canonical_json(stacked ? r.run_stacked(spec)
                                                       : r.run(spec, y));
  } catch (const std::exception& e) {
    if (rep.errors.size() < 20) {
      rep.errors.push_back(label(spec, y) + " threw: " + e.what());
    }
    return std::nullopt;
  }
}

/// Compares timed renderings with the reference, one check each.
void compare(const std::vector<std::optional<std::string>>& got,
             const std::vector<std::string>& ref,
             const std::vector<std::string>& labels, Report& rep) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    rep.check(got[i] && *got[i] == ref[i], labels[i] + " differs from reference");
  }
}

/// One pass's clock: wall, CPU and the pass's own peak RSS. Memory the
/// allocator still holds from the set-up or earlier passes goes back to
/// the kernel first (untimed), so every pass starts from the same heap
/// and its peak counts only what it uses.
class PassClock {
 public:
  PassClock() {
    malloc_trim(0);
    reset_peak_rss();
    c0_ = cpu_now();
    w0_ = wall_now();
  }
  /// Stops the clock, recording into `s`; returns the wall seconds.
  double stop(Samples& s, double items) {
    const double w = wall_now() - w0_;
    s.cpu_s.push_back(cpu_now() - c0_);
    s.pass_s.push_back(w);
    s.rss_mb.push_back(peak_rss_mb());
    s.rate_per_s.push_back(items / w);
    return w;
  }

 private:
  double w0_ = 0.0, c0_ = 0.0;
};

/// Runs pass(index, traced) until `seconds` have elapsed and at least
/// `min_passes` ran. Traced runs alternate untraced and traced passes
/// and record the tracing overhead (median traced minus median
/// untraced pass wall time). pass() returns its wall seconds.
void timed_loop(const Options& o, Trace& tr, int min_passes,
                const std::function<double(int, bool)>& pass) {
  std::vector<double> plain, traced;
  const double start = wall_now();
  for (int i = 0; i < min_passes || wall_now() - start < o.seconds; ++i) {
    const bool t = o.trace && i % 2 == 1;
    tr.next_group();
    const double w = pass(i, t);
    (t ? traced : plain).push_back(w);
  }
  if (o.trace) {
    tr.next_group();
    tr.count("trace.overhead_s", median(traced) - median(plain));
  }
}

/// Set-up, run kSetups times; setup_s is the median.
void timed_setups(Trace& tr, Samples& s, const std::function<void()>& setup) {
  for (int i = 0; i < kSetups; ++i) {
    tr.next_group();
    const double t0 = wall_now();
    setup();
    s.setup_s.push_back(wall_now() - t0);
  }
}

// --- Layer probes -----------------------------------------------------

/// Simulates every campaign year and saves it under the campaign-cache
/// key in `cache`, the way `tokyonet snapshot warm` does. `note_sizes`
/// records the campaign sizes in the environment record.
void warm_cache(const fs::path& cache, double scale, std::uint64_t seed,
                Trace& tr, Report& rep, bool note_sizes = true) {
  fs::remove_all(cache);
  fs::create_directories(cache);
  double devices = 0, samples = 0, bytes = 0;
  for (const Year y : tokyonet::kAllYears) {
    const ScenarioConfig c = config(y, scale, seed);
    Dataset ds;
    {
      Trace::Scope s(tr, "sim.simulate_s");
      ds = tokyonet::sim::Simulator(c).run();
    }
    tr.count("sim.samples", static_cast<double>(ds.samples.size()));
    const fs::path path = tokyonet::io::campaign_cache_path(cache, c);
    tokyonet::io::SnapshotResult r;
    {
      Trace::Scope s(tr, "io.snapshot_save_s");
      r = tokyonet::io::save_snapshot(ds, path, tokyonet::scenario_hash(c));
    }
    rep.check(r.ok(), "snapshot save: " + r.error);
    const auto size = static_cast<double>(fs::file_size(path));
    tr.count("io.snapshot_bytes", size);
    devices += static_cast<double>(ds.devices.size());
    samples += static_cast<double>(ds.samples.size());
    bytes += size;
  }
  if (!note_sizes) return;
  rep.note("devices", devices);
  rep.note("samples", samples);
  rep.note("snapshot_bytes", bytes);
}

/// Loads each cached campaign with default options (io.snapshot_load_s)
/// and again split into its parts: the mapped read without payload
/// verification, the verification it skipped, validate() and the
/// index build. Every check still runs; each is timed on its own.
void probe_snapshot_loads(const fs::path& cache, double scale,
                          std::uint64_t seed, Trace& tr, Report& rep) {
  namespace io = tokyonet::io;
  tr.next_group();
  for (const Year y : tokyonet::kAllYears) {
    const fs::path path = io::campaign_cache_path(cache, config(y, scale, seed));
    {
      Dataset ds;
      Trace::Scope s(tr, "io.snapshot_load_s");
      const io::SnapshotResult r = io::load_snapshot(path, ds);
      rep.check(r.ok(), "snapshot load: " + r.error);
    }
    io::SnapshotLoadOptions deferred;
    deferred.defer_validate = true;
    deferred.verify_payload = false;
    Dataset mapped;
    double t0 = wall_now();
    io::SnapshotResult r = io::load_snapshot(path, mapped, deferred);
    const double map_s = wall_now() - t0;
    tr.span("io.snapshot_map_s", t0, map_s);
    rep.check(r.ok(), "snapshot map: " + r.error);
    {
      Dataset verified;
      deferred.verify_payload = true;
      t0 = wall_now();
      r = io::load_snapshot(path, verified, deferred);
      tr.count("io.snapshot_verify_s", (wall_now() - t0) - map_s);
      rep.check(r.ok(), "snapshot verify: " + r.error);
    }
    std::string invalid;
    {
      Trace::Scope s(tr, "core.validate_s");
      invalid = mapped.validate();
    }
    rep.check(invalid.empty(), "validate: " + invalid);
    bool indexed = false;
    {
      Trace::Scope s(tr, "core.index_build_s");
      indexed = mapped.build_index();
    }
    rep.check(indexed, "index build failed");
  }
}

/// Times the analysis-context memos of every year on `runner`, then
/// every figure once, stacked over its years, with the memos warm:
/// report.fig.<id>_s and report.renderings.
void probe_analysis_and_figures(Runner& runner, Trace& tr, Report& rep) {
  tr.next_group();
  for (const Year y : tokyonet::kAllYears) {
    const tokyonet::analysis::AnalysisContext& ctx = runner.analysis(y);
    {
      Trace::Scope s(tr, "analysis.scan_s");
      (void)ctx.days();
    }
    {
      Trace::Scope s(tr, "analysis.classifier_s");
      (void)ctx.classifier();
    }
    {
      Trace::Scope s(tr, "analysis.classification_s");
      (void)ctx.classification();
    }
    {
      Trace::Scope s(tr, "analysis.home_cells_s");
      (void)ctx.home_cells();
    }
  }
  for (const FigureSpec& spec : FigureRegistry::instance().figures()) {
    std::optional<std::string> out;
    {
      Trace::Scope s(tr, "report.fig." + spec.id + "_s");
      out = render(runner, spec, std::nullopt, true, rep);
    }
    rep.check(out.has_value(), spec.id + " failed in the figure probe");
    tr.count("report.renderings", renderings(spec));
  }
}

/// The figures that render out of core for `y`.
std::vector<const FigureSpec*> ooc_specs(Year y) {
  std::vector<const FigureSpec*> out;
  for (const FigureSpec& spec : FigureRegistry::instance().figures()) {
    if (spec.out_of_core && spec.applies_to(y)) out.push_back(&spec);
  }
  return out;
}

/// Query-layer census over the cached campaigns held in memory: every
/// out-of-core-capable figure renders through a TracedSource wrapping
/// an InMemorySource. Kernels that find the resident dataset through
/// dataset_or_null() answer without a fold_blocks() pass, so this
/// records only the passes the in-memory catalog really makes.
void probe_query_census(const fs::path& cache, double scale,
                        std::uint64_t seed, Trace& tr, Report& rep) {
  namespace query = tokyonet::analysis::query;
  std::vector<Dataset> ds(tokyonet::kNumYears);
  std::vector<std::unique_ptr<query::InMemorySource>> mem;
  std::vector<std::unique_ptr<TracedSource>> traced;
  Runner runner(runner_options(scale, seed));
  for (const Year y : tokyonet::kAllYears) {
    const int i = static_cast<int>(y);
    const tokyonet::io::SnapshotResult r = tokyonet::io::load_snapshot(
        tokyonet::io::campaign_cache_path(cache, config(y, scale, seed)), ds[i]);
    rep.check(r.ok(), "census load: " + r.error);
    mem.push_back(std::make_unique<query::InMemorySource>(ds[i]));
    traced.push_back(std::make_unique<TracedSource>(*mem.back(), tr));
    runner.adopt_source(y, *traced.back());
  }
  tr.next_group();
  for (const FigureSpec& spec : FigureRegistry::instance().figures()) {
    if (!spec.out_of_core) continue;
    for (const Year y : spec.years) {
      rep.check(render(runner, spec, y, false, rep).has_value(),
                label(spec, y) + " failed in the query census");
    }
  }
}

/// Query-layer census out of core: every out-of-core figure of the
/// store's year renders through a TracedSource over a ShardedSource.
void probe_query_census_store(const fs::path& dir, double scale,
                              std::uint64_t seed, std::size_t resident_shards,
                              Trace& tr, Report& rep) {
  tokyonet::io::ShardedDataset store;
  const tokyonet::io::SnapshotResult r =
      tokyonet::io::ShardedDataset::open(dir, store);
  rep.check(r.ok(), "census open: " + r.error);
  if (!r.ok()) return;
  tokyonet::analysis::query::ShardedSource src(store, resident_shards);
  TracedSource traced(src, tr);
  Runner runner(runner_options(scale, seed));
  runner.adopt_source(store.year(), traced);
  tr.next_group();
  for (const FigureSpec* spec : ooc_specs(store.year())) {
    rep.check(render(runner, *spec, store.year(), false, rep).has_value(),
              label(*spec, store.year()) + " failed in the query census");
  }
}

/// Opens the shard store and loads every shard once, in order.
void probe_shards(const fs::path& dir, Trace& tr, Report& rep) {
  namespace io = tokyonet::io;
  tr.next_group();
  io::ShardedDataset store;
  io::SnapshotResult r;
  {
    Trace::Scope s(tr, "io.shard_open_s");
    r = io::ShardedDataset::open(dir, store);
  }
  rep.check(r.ok(), "shard open: " + r.error);
  if (!r.ok()) return;
  for (std::size_t i = 0; i < store.num_shards(); ++i) {
    Dataset shard;
    {
      Trace::Scope s(tr, "io.shard_load_s");
      r = store.load_shard(i, shard);
    }
    rep.check(r.ok(), "shard load: " + r.error);
    tr.count("io.shard_bytes",
             static_cast<double>(store.manifest().shards[i].file_bytes));
  }
}

// --- Ingest -----------------------------------------------------------

/// FrameSink collecting the encoded stream in memory.
class BufferSink final : public tokyonet::ingest::FrameSink {
 public:
  explicit BufferSink(std::vector<std::uint8_t>& out) : out_(out) {}
  [[nodiscard]] bool write(std::span<const std::uint8_t> bytes) override {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
    return true;
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// One campaign encoded as a frame stream, plus what a lossless ingest
/// of it must commit.
struct FrameStream {
  std::vector<std::uint8_t> bytes;
  tokyonet::ingest::ReplayStats sent;
  std::uint64_t samples_hash = 0;
  std::uint64_t app_hash = 0;
};

template <typename T>
std::uint64_t hash_column(const T* data, std::size_t n) {
  return tokyonet::core::hash_bytes(data, n * sizeof(T), 0);
}

FrameStream encode(const Dataset& ds, Trace& tr, Report& rep) {
  FrameStream fs;
  BufferSink sink(fs.bytes);
  bool ok = false;
  {
    Trace::Scope s(tr, "ingest.encode_s");
    tokyonet::ingest::ReplayOptions ro;
    ro.batch_records = kClientBatch;
    ok = tokyonet::ingest::replay_dataset(ds, ro, sink, &fs.sent);
  }
  rep.check(ok, "replay_dataset rejected by the sink");
  fs.samples_hash = hash_column(ds.samples.data(), ds.samples.size());
  fs.app_hash = hash_column(ds.app_traffic.data(), ds.app_traffic.size());
  return fs;
}

/// Feeds `fs`, in kFeedChunk slices, through one session of a fresh
/// server, timing feed() and finish() plus shutdown(), then checks
/// counters() and collect() against what was sent.
void ingest_pass(const FrameStream& fs, Trace& tr, Report& rep) {
  namespace ingest = tokyonet::ingest;
  ingest::IngestConfig cfg;
  cfg.shards = kIngestShards;
  ingest::IngestServer server(cfg);
  std::unique_ptr<ingest::IngestServer::Session> session = server.connect();
  const double start = wall_now();
  bool alive = true;
  for (std::size_t off = 0; alive && off < fs.bytes.size(); off += kFeedChunk) {
    const std::size_t n = std::min(kFeedChunk, fs.bytes.size() - off);
    Trace::Scope f(tr, "ingest.feed_s");
    alive = session->feed(std::span<const std::uint8_t>(fs.bytes.data() + off, n));
  }
  bool clean = false;
  {
    Trace::Scope f(tr, "ingest.finish_s");
    clean = alive && session->finish();
    server.shutdown();
  }
  tr.span("ingest.pass", start, wall_now() - start);
  const ingest::IngestCounters c = server.counters();
  tr.count("ingest.frames", static_cast<double>(c.frames_accepted + c.frames_rejected));
  tr.count("ingest.bytes", static_cast<double>(c.bytes_received));
  tr.count("ingest.records_committed", static_cast<double>(c.records_committed));
  tr.count("ingest.records_shed", static_cast<double>(c.records_shed));
  tr.count("ingest.frames_rejected", static_cast<double>(c.frames_rejected));

  rep.check(clean && c.sessions_failed == 0,
            "ingest session failed: " + session->error());
  const std::uint64_t frames = fs.sent.frames + 2;  // + Begin and End
  rep.tally(frames, c.frames_rejected, "ingest frames rejected");
  const std::uint64_t missing = fs.sent.records > c.records_committed
                                    ? fs.sent.records - c.records_committed
                                    : 0;
  rep.tally(fs.sent.records, std::max(missing, c.records_shed),
            "ingest records shed or missing");
  rep.check(c.app_records_committed == fs.sent.app_records,
            "ingest app records committed differ from sent");
  const ingest::IngestServer::CommittedStream got = server.collect();
  rep.check(hash_column(got.samples.data(), got.samples.size()) == fs.samples_hash &&
                hash_column(got.app_traffic.data(), got.app_traffic.size()) ==
                    fs.app_hash,
            "ingest collect() differs from the sent samples");
}

// --- Workloads ----------------------------------------------------------

/// catalog_mem: `fig all` over the warm snapshot cache of all three
/// campaigns; one pass is a fresh Runner rendering every spec stacked.
void catalog_mem(const Options& o, Report& rep, Trace& tr, Samples& s) {
  const double scale = catalog_scale(o);
  const fs::path cache = o.work / "cache";
  timed_setups(tr, s, [&] { warm_cache(cache, scale, o.seed, tr, rep); });
  const ScopedEnv env("TOKYONET_CACHE_DIR", cache.c_str());
  const std::vector<FigureSpec>& specs = FigureRegistry::instance().figures();
  std::vector<std::string> labels, ref;
  {
    Runner r(runner_options(scale, o.seed));
    for (const FigureSpec& spec : specs) {
      labels.push_back(spec.id);
      std::optional<std::string> out = render(r, spec, std::nullopt, true, rep);
      rep.check(out.has_value(), spec.id + " failed in the reference");
      ref.push_back(out.value_or(""));
    }
  }
  if (o.inject == "reference") ref.front() += " ";
  rep.note("scale", scale);

  Trace off(false);
  Samples scratch;
  timed_loop(o, tr, 3, [&](int, bool traced) {
    Trace& t = traced ? tr : off;
    Samples& dst = traced || o.trace ? scratch : s;
    std::vector<std::optional<std::string>> got;
    double items = 0;
    PassClock clock;
    {
      Runner r(runner_options(scale, o.seed));
      for (const FigureSpec& spec : specs) {
        const double t0 = wall_now();
        got.push_back(render(r, spec, std::nullopt, true, rep));
        t.span("render." + spec.id, t0, wall_now() - t0);
        items += renderings(spec);
      }
    }
    const double w = clock.stop(dst, items);
    dst.latency_ms.push_back(w * 1e3);
    compare(got, ref, labels, rep);
    return w;
  });
  if (!o.trace) return;
  probe_snapshot_loads(cache, scale, o.seed, tr, rep);
  {
    Runner r(runner_options(scale, o.seed));
    probe_analysis_and_figures(r, tr, rep);
  }
  probe_query_census(cache, scale, o.seed, tr, rep);
}

/// figure_requests: a seeded closed loop of single-figure requests from
/// one client, cycling over every (figure, year) rendering; each request
/// is a fresh Runner over the warm cache, the way `fig run` is.
void figure_requests(const Options& o, Report& rep, Trace& tr, Samples& s) {
  const double scale = catalog_scale(o);
  const fs::path cache = o.work / "cache";
  timed_setups(tr, s, [&] { warm_cache(cache, scale, o.seed, tr, rep); });
  const ScopedEnv env("TOKYONET_CACHE_DIR", cache.c_str());
  std::vector<std::pair<const FigureSpec*, std::optional<Year>>> combos;
  for (const FigureSpec& spec : FigureRegistry::instance().figures()) {
    if (!spec.per_year()) combos.emplace_back(&spec, std::nullopt);
    for (const Year y : spec.years) combos.emplace_back(&spec, y);
  }
  // The reference is the catalog-style rendering: one Runner, shared memos.
  std::vector<std::string> ref;
  {
    Runner r(runner_options(scale, o.seed));
    for (const auto& [spec, y] : combos) {
      std::optional<std::string> out = render(r, *spec, y, false, rep);
      rep.check(out.has_value(), label(*spec, y) + " failed in the reference");
      ref.push_back(out.value_or(""));
    }
  }
  if (o.inject == "reference") ref.front() += " ";
  rep.note("scale", scale);

  std::mt19937_64 rng(o.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::size_t> order;
  Trace off(false);
  Samples scratch;
  // A traced run requests each rendering twice in a row, untraced then
  // traced, so the overhead compares like with like.
  const int per_request = o.trace ? 2 : 1;
  timed_loop(o, tr, 100 * per_request, [&](int i, bool traced) {
    const auto k = static_cast<std::size_t>(i / per_request);
    if (k % combos.size() == 0 && i % per_request == 0) {
      order.resize(combos.size());
      for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
      std::shuffle(order.begin(), order.end(), rng);
    }
    const std::size_t idx = order[k % combos.size()];
    const auto& [spec, y] = combos[idx];
    Trace& t = traced ? tr : off;
    Samples& dst = traced || o.trace ? scratch : s;
    std::optional<std::string> got;
    const double t0 = wall_now();
    PassClock clock;
    {
      Runner r(runner_options(scale, o.seed));
      got = render(r, *spec, y, false, rep);
    }
    const double w = clock.stop(dst, 1.0);
    t.span("request." + label(*spec, y), t0, w);
    dst.latency_ms.push_back(w * 1e3);
    rep.check(got && *got == ref[idx], label(*spec, y) + " differs from reference");
    return w;
  });
  rep.note("requests", static_cast<double>(s.pass_s.size()));
  if (!o.trace) return;
  probe_snapshot_loads(cache, scale, o.seed, tr, rep);
  {
    Runner r(runner_options(scale, o.seed));
    probe_analysis_and_figures(r, tr, rep);
  }
  probe_query_census(cache, scale, o.seed, tr, rep);
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1, what);
}

void Report::tally(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && errors.size() < 20) errors.push_back(what);
}

void Report::note(const std::string& key, double v) { env[key] = json_number(v); }

void Report::note(const std::string& key, const std::string& v) {
  env[key] = json_string(v);
}

void check_goldens(Report& rep) {
  // Goldens are pinned at the scenario's own seed, uncached.
  const ScopedEnv no_cache("TOKYONET_CACHE_DIR", nullptr);
  Runner::Options ro;
  ro.scale = tokyonet::report::kGoldenScale;
  Runner runner(ro);
  const tokyonet::report::GoldenReport g =
      tokyonet::report::check_goldens(kGoldenDir, runner);
  rep.tally(static_cast<std::uint64_t>(g.figures),
            static_cast<std::uint64_t>(g.mismatched), "golden check failed");
  for (const std::string& e : g.errors) {
    if (rep.errors.size() < 20) rep.errors.push_back("golden: " + e);
  }
}

bool run_workload(const Options& o, Report& rep, Trace& tr, Samples& s) {
  using Fn = void (*)(const Options&, Report&, Trace&, Samples&);
  static const std::map<std::string, Fn> kWorkloads = {
      {"catalog_mem", catalog_mem},
      {"figure_requests", figure_requests},
  };
  const auto it = kWorkloads.find(o.workload);
  if (it == kWorkloads.end()) return false;
  // Only traced runs ingest (in the layer sweep), so only they can take a
  // corrupted frame.
  if (!o.inject.empty() && o.inject != "reference" &&
      !(o.inject == "frame" && o.trace)) {
    return false;
  }
  it->second(o, rep, tr, s);
  return true;
}

void layer_sweep(const Options& o, Report& rep, Trace& tr) {
  const double scale = tokyonet::report::kGoldenScale;
  const fs::path dir = o.work / "sweep";
  const fs::path cache = dir / "cache";
  tr.next_group();
  warm_cache(cache, scale, o.seed, tr, rep, false);
  probe_snapshot_loads(cache, scale, o.seed, tr, rep);
  {
    const ScopedEnv env("TOKYONET_CACHE_DIR", cache.c_str());
    Runner r(runner_options(scale, o.seed));
    probe_analysis_and_figures(r, tr, rep);
  }

  tr.next_group();
  const ScenarioConfig c2015 = config(Year::Y2015, scale, o.seed);
  tokyonet::sim::StreamCampaignOptions so;
  so.shards = kSweepShards;
  tokyonet::sim::StreamCampaignResult w;
  {
    Trace::Scope span(tr, "sim.stream_s");
    w = tokyonet::sim::stream_campaign(c2015, dir / "store", so);
  }
  rep.check(w.ok(), "sweep stream_campaign: " + w.error);
  probe_shards(dir / "store", tr, rep);
  probe_query_census_store(dir / "store", scale, o.seed, kSweepResidentShards,
                           tr, rep);

  tr.next_group();
  Dataset ds;
  const tokyonet::io::SnapshotResult r = tokyonet::io::load_snapshot(
      tokyonet::io::campaign_cache_path(cache, c2015), ds);
  rep.check(r.ok(), "sweep load: " + r.error);
  FrameStream fs = encode(ds, tr, rep);
  if (o.inject == "frame") fs.bytes[fs.bytes.size() / 2] ^= 0x5a;
  tr.next_group();
  ingest_pass(fs, tr, rep);
}

std::vector<std::pair<std::string, std::string>> end_to_end_metrics() {
  return {{"setup_s", "s"},           {"latency_p50_ms", "ms"},
          {"latency_p90_ms", "ms"},    {"throughput_per_s", "1/s"},
          {"cpu_s", "s"},              {"peak_rss_mb", "MB"}};
}

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"sim.simulate_s", "s"},
      {"sim.samples_per_s", "samples/s"},
      {"sim.stream_s", "s"},
      {"io.snapshot_save_s", "s"},
      {"io.snapshot_bytes", "bytes"},
      {"io.snapshot_load_s", "s"},
      {"io.snapshot_map_s", "s"},
      {"io.snapshot_verify_s", "s"},
      {"core.validate_s", "s"},
      {"core.index_build_s", "s"},
      {"io.shard_open_s", "s"},
      {"io.shard_load_s", "s"},
      {"io.shard_bytes", "bytes"},
      {"query.passes", "count"},
      {"query.blocks", "count"},
      {"query.scan_s", "s"},
      {"query.fold_s", "s"},
      {"query.wait_s", "s"},
      {"analysis.scan_s", "s"},
      {"analysis.classifier_s", "s"},
      {"analysis.classification_s", "s"},
      {"analysis.home_cells_s", "s"},
  };
  for (const FigureSpec& spec : FigureRegistry::instance().figures()) {
    m.emplace_back("report.fig." + spec.id + "_s", "s");
  }
  m.insert(m.end(), {{"report.renderings", "count"},
                     {"ingest.encode_s", "s"},
                     {"ingest.feed_s", "s"},
                     {"ingest.finish_s", "s"},
                     {"ingest.frames", "count"},
                     {"ingest.bytes", "bytes"},
                     {"ingest.records_committed", "count"},
                     {"ingest.records_shed", "count"},
                     {"ingest.frames_rejected", "count"},
                     {"trace.overhead_s", "s"}});
  return m;
}

void emit_end_to_end(const Samples& s, Report& rep) {
  auto set = [&](const char* name, double v, const char* unit) {
    rep.metrics[name] = {v, unit};
  };
  set("setup_s", median(s.setup_s), "s");
  set("latency_p50_ms", quantile(s.latency_ms, 0.5), "ms");
  set("latency_p90_ms", quantile(s.latency_ms, 0.9), "ms");
  set("throughput_per_s", median(s.rate_per_s), "1/s");
  set("cpu_s", median(s.cpu_s), "s");
  set("peak_rss_mb", median(s.rss_mb), "MB");
  rep.note("passes", static_cast<double>(s.pass_s.size()));
  rep.note("latency_samples", static_cast<double>(s.latency_ms.size()));
}

std::vector<std::string> emit_per_layer(const Trace& main, const Trace& sweep,
                                        Report& rep) {
  std::vector<std::string> from_sweep;
  auto pick = [&](const std::string& name) -> std::optional<double> {
    if (std::optional<double> v = main.metric(name)) return v;
    if (name == "trace.overhead_s") return std::nullopt;
    from_sweep.push_back(name);
    return sweep.metric(name);
  };
  for (const auto& [name, unit] : per_layer_metrics()) {
    std::optional<double> v;
    if (name == "sim.samples_per_s") {
      // Derived from the same trace as sim.simulate_s.
      const Trace& t = main.metric("sim.simulate_s") ? main : sweep;
      const std::optional<double> n = t.metric("sim.samples");
      const std::optional<double> sec = t.metric("sim.simulate_s");
      if (n && sec && *sec > 0) v = *n / *sec;
      if (&t == &sweep) from_sweep.push_back(name);
    } else {
      v = pick(name);
    }
    if (v) rep.metrics[name] = {*v, unit};
  }
  return from_sweep;
}

}  // namespace perfbench
