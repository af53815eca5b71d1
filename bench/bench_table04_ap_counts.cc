// Table 4: number of estimated (associated) APs by inferred class.
#include "common.h"

namespace {

using namespace tokyonet;

void BM_ClassifyAps(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classify_aps(src));
  }
}
BENCHMARK(BM_ClassifyAps)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

TOKYONET_BENCH_FIGURE("table04")
