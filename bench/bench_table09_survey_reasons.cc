// Table 9: survey — reasons for WiFi unavailability per location per
// year (multiple answers allowed).
#include "analysis/surveytab.h"
#include "common.h"

namespace {

using namespace tokyonet;

void BM_SurveyReasons(benchmark::State& state) {
  const analysis::query::DataSource& src = bench::source(Year::Y2015);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::survey_reasons(src));
  }
}
BENCHMARK(BM_SurveyReasons)->Unit(benchmark::kMicrosecond);

}  // namespace

TOKYONET_BENCH_FIGURE("table09")
