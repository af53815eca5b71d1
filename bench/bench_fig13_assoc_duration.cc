// Fig 13: CCDFs of consecutive WiFi association time with one AP, by
// inferred AP class, 2013 vs 2015.
#include "analysis/wifiusage.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_AssociationDurations(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::association_durations(src, cls));
  }
}
BENCHMARK(BM_AssociationDurations)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig13")
