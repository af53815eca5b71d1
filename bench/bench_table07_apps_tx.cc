// Table 7: top application categories ranked by upload (TX) volume,
// per context and year (Android).
#include "analysis/apps.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_AppBreakdownTx(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2014);
  const auto& cls = bench::classification(Year::Y2014);
  const auto& home_cells = bench::home_cells(Year::Y2014);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::app_breakdown(src, cls, home_cells));
  }
}
BENCHMARK(BM_AppBreakdownTx)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("table07")
