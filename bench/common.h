// Shared infrastructure for the per-figure/per-table bench binaries.
//
// Each bench binary does two things:
//   1. prints its paper table/figure reproduction by running the
//      registered figure (report::FigureRegistry) through the shared
//      report::Runner at TOKYONET_BENCH_SCALE (default 1.0 = the
//      paper's full panel); and
//   2. registers google-benchmark timings for the analysis kernels it
//      exercises.
#pragma once

#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/classify.h"
#include "analysis/common.h"
#include "analysis/context.h"
#include "analysis/update.h"
#include "core/records.h"
#include "io/table.h"
#include "report/registry.h"
#include "report/runner.h"
#include "sim/simulator.h"

namespace tokyonet::bench {

/// Scale of the simulated panels (TOKYONET_BENCH_SCALE env override).
[[nodiscard]] double bench_scale();

/// The process-wide figure runner: campaign simulation (through the
/// on-disk campaign cache) and analysis memoization shared by the
/// reproduction printer and every registered benchmark.
[[nodiscard]] report::Runner& runner();

/// Lazily simulated, cached campaign for `year` at bench_scale().
[[nodiscard]] const Dataset& campaign(Year year);

/// Memoized analysis context over campaign(year): every shared
/// intermediate (user days, classifier, AP classification, home cells,
/// update detection) is computed at most once per bench binary.
[[nodiscard]] const analysis::AnalysisContext& context(Year year);

/// The query::DataSource every analysis kernel reads campaign(year)
/// through (context(year).source()).
[[nodiscard]] const analysis::query::DataSource& source(Year year);

/// Cached AP classification for the bench campaign.
[[nodiscard]] const analysis::ApClassification& classification(Year year);

/// Cached update detection (2015: min_day = 9 per the public release
/// date; other years: nothing to detect).
[[nodiscard]] const analysis::UpdateDetection& updates(Year year);

/// Cached per-user-day rollup with the paper's update-day exclusion.
[[nodiscard]] const std::vector<analysis::UserDay>& days(Year year);

/// Cached heavy/light classifier over days(year).
[[nodiscard]] const analysis::UserClassifier& classifier(Year year);

/// Cached per-device inferred home cells.
[[nodiscard]] const std::vector<GeoCell>& home_cells(Year year);

/// Prints the standard bench header.
void print_header(std::string_view experiment, std::string_view paper_ref);

/// Prints the registered figure named `figure_id` (stacked over its
/// paper years), then runs google-benchmark. Call from each binary's
/// main().
int bench_main(int argc, char** argv, const char* figure_id);

/// Variant for binaries whose reproduction is not a registry figure
/// (bench_ingest): runs a free printer function instead.
int bench_main(int argc, char** argv, void (*print_reproduction)());

}  // namespace tokyonet::bench

/// Boilerplate main for a bench binary that reproduces the registered
/// figure `id`.
#define TOKYONET_BENCH_FIGURE(id)                           \
  int main(int argc, char** argv) {                         \
    return tokyonet::bench::bench_main(argc, argv, id);     \
  }

/// Boilerplate main for a bench binary with a `print_reproduction()`
/// free function defined in the same translation unit.
#define TOKYONET_BENCH_MAIN()                                        \
  int main(int argc, char** argv) {                                  \
    return tokyonet::bench::bench_main(argc, argv, &print_reproduction); \
  }
