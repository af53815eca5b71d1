// Fig 11: WiFi traffic volume at home / public / office APs over a
// campaign week, 2013 and 2015.
#include "analysis/aggregate.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_LocationSeries(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::location_series(src, cls, {ApClass::Home, false}, true));
  }
}
BENCHMARK(BM_LocationSeries)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig11")
