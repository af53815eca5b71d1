// Fig 2: aggregated traffic volume (Mbps) over the first campaign week
// of 2015 — cellular/WiFi x TX/RX, hourly.
#include "analysis/aggregate.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_AggregateSeries(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::aggregate_series(src, analysis::Stream::WifiRx));
  }
}
BENCHMARK(BM_AggregateSeries)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig02")
