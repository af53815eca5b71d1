// Table 5: breakdown of associated ESSIDs per device-day by network
// class combination (home, public, other).
#include "analysis/wifiusage.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_HpoBreakdown(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::hpo_breakdown(src, cls));
  }
}
BENCHMARK(BM_HpoBreakdown)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

TOKYONET_BENCH_FIGURE("table05")
