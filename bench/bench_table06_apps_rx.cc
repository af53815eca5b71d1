// Table 6: top application categories ranked by download (RX) volume,
// per context and year (Android).
#include "analysis/apps.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_AppBreakdown(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  const auto& cls = bench::classification(Year::Y2015);
  const auto& home_cells = bench::home_cells(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::app_breakdown(src, cls, home_cells));
  }
}
BENCHMARK(BM_AppBreakdown)->Unit(benchmark::kMillisecond);

void BM_InferHomeCells(benchmark::State& state) {
  const Dataset& ds = bench::campaign(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::infer_home_cells(ds));
  }
}
BENCHMARK(BM_InferHomeCells)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

TOKYONET_BENCH_FIGURE("table06")
