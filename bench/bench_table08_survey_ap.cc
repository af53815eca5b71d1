// Table 8: survey — self-reported WiFi AP usage per location per year.
#include "analysis/surveytab.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_SurveyApUsage(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::survey_ap_usage(src));
  }
}
BENCHMARK(BM_SurveyApUsage)->Unit(benchmark::kMicrosecond);

}  // namespace

TOKYONET_BENCH_FIGURE("table08")
