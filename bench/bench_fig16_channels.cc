// Fig 16: probability density of associated 2.4 GHz channels for home
// and public APs, 2013 vs 2015.
#include "analysis/quality.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_ChannelAnalysis(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  const auto& cls = bench::classification(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::channel_analysis(src, cls));
  }
}
BENCHMARK(BM_ChannelAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

TOKYONET_BENCH_FIGURE("fig16")
