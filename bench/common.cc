#include "common.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "core/parallel.h"
#include "report/table.h"
#include "stats/simd.h"

namespace tokyonet::bench {

double bench_scale() {
  static const double scale = [] {
    if (const char* env = std::getenv("TOKYONET_BENCH_SCALE")) {
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(env, &end);
      // A partial parse ("2x", "1.0abc") or empty/garbage input is a
      // user error: warn and fall back instead of silently using a
      // numeric prefix.
      if (end == env || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr,
                     "warning: ignoring unparsable TOKYONET_BENCH_SCALE=%s\n",
                     env);
        return 1.0;
      }
      if (v > 0.0) {
        if (v > 10.0) {
          std::fprintf(stderr,
                       "warning: TOKYONET_BENCH_SCALE=%g simulates a panel "
                       "%gx the paper's (~%d users); expect long runs\n",
                       v, v, static_cast<int>(v * 1750));
        }
        return v;
      }
      std::fprintf(stderr,
                   "warning: ignoring non-positive TOKYONET_BENCH_SCALE=%s\n",
                   env);
    }
    return 1.0;
  }();
  return scale;
}

report::Runner& runner() {
  // One Runner per bench process: campaigns and analysis contexts are
  // memoized inside it (std::call_once), so concurrent first use from
  // google-benchmark worker threads is safe.
  static report::Runner instance{[] {
    report::Runner::Options opt;
    opt.scale = bench_scale();
    opt.announce_cache = true;  // run_bench.sh greps the cache lines
    return opt;
  }()};
  return instance;
}

const Dataset& campaign(Year year) { return runner().dataset(year); }

const analysis::AnalysisContext& context(Year year) {
  return runner().analysis(year);
}

const analysis::query::DataSource& source(Year year) {
  return context(year).source();
}

const analysis::ApClassification& classification(Year year) {
  return context(year).classification();
}

const analysis::UpdateDetection& updates(Year year) {
  return context(year).updates();
}

const std::vector<analysis::UserDay>& days(Year year) {
  return context(year).days();
}

const analysis::UserClassifier& classifier(Year year) {
  return context(year).classifier();
}

const std::vector<GeoCell>& home_cells(Year year) {
  return context(year).home_cells();
}

void print_header(std::string_view experiment, std::string_view paper_ref) {
  std::printf("================================================================\n");
  std::printf("%.*s — reproduces %.*s\n", static_cast<int>(experiment.size()),
              experiment.data(), static_cast<int>(paper_ref.size()),
              paper_ref.data());
  std::printf("panel scale: %.2f (set TOKYONET_BENCH_SCALE to change)\n",
              bench_scale());
  std::printf("threads: %d (set TOKYONET_THREADS to change)\n",
              core::thread_count());
  // Machine-greppable: run_bench.sh records which SIMD path the
  // columnar kernels compiled to (sse2/neon/scalar) in the BENCH json,
  // so timings from different hosts are comparable.
  std::printf("tokyonet-simd: isa=%s\n", stats::simd::active_isa());
  std::printf("================================================================\n");
}

namespace {

int run_benchmarks(int argc, char** argv) {
  std::printf("\n-- analysis kernel timings --\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int bench_main(int argc, char** argv, const char* figure_id) {
  const report::FigureSpec* spec =
      report::FigureRegistry::instance().find(figure_id);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown figure id: %s\n", figure_id);
    return 1;
  }
  print_header(spec->id, spec->paper_ref);
  std::fputs(report::to_text(runner().run_stacked(*spec)).c_str(), stdout);
  return run_benchmarks(argc, argv);
}

int bench_main(int argc, char** argv, void (*print_reproduction)()) {
  print_reproduction();
  return run_benchmarks(argc, argv);
}

}  // namespace tokyonet::bench
