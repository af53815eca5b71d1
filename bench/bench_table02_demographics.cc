// Table 2: user-survey demographics (occupation mix per year).
#include "analysis/surveytab.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_Demographics(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::demographics(src));
  }
}
BENCHMARK(BM_Demographics)->Unit(benchmark::kMicrosecond);

}  // namespace

TOKYONET_BENCH_FIGURE("table02")
