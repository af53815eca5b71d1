// Declarations shared by the benchmark driver's entry point and its
// workloads (see perfbench/README.md for what each workload measures).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: every workload shrinks to a few seconds.
  bool tiny = false;
  /// Fault injected on purpose: "frame" corrupts one ingest frame,
  /// "reference" perturbs one reference rendering. Empty: none.
  std::string inject;
  std::filesystem::path work;  // scratch directory of this run
};

/// The committed golden renderings, relative to the repository root.
inline constexpr const char* kGoldenDir = "tests/golden";

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation checked and measured.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures, for the log
  std::map<std::string, Metric> metrics;
  /// Environment record: name -> JSON literal.
  std::map<std::string, std::string> env;

  /// Counts one checked operation; `ok == false` is a failure.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  void note(const std::string& key, double v);
  void note(const std::string& key, const std::string& v);
};

/// Raw timings of the untraced passes, reduced to the end-to-end
/// metrics by emit_end_to_end().
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::vector<double> cpu_s;
  std::vector<double> rss_mb;
  std::vector<double> latency_ms;
  std::vector<double> rate_per_s;  // work items per second, per pass
};

/// Renders every figure at report::kGoldenScale and byte-compares it
/// with the committed goldens.
void check_goldens(Report& rep);

/// Runs `o.workload`: set-up, reference renderings, timed passes and,
/// when tracing, the layer probes over the workload's own data.
/// Returns false for an unknown workload or fault.
bool run_workload(const Options& o, Report& rep, Trace& tr, Samples& s);

/// Every per-layer probe once, at report::kGoldenScale: fills the
/// per-layer metrics of layers the workload itself does not exercise.
void layer_sweep(const Options& o, Report& rep, Trace& tr);

/// End-to-end metric names and units, in output order.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
end_to_end_metrics();
/// Per-layer metric names and units, in output order.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
per_layer_metrics();

void emit_end_to_end(const Samples& s, Report& rep);
/// Fills every per-layer metric from `main` (the workload's own spans)
/// or, for layers it never touched, from `sweep`. Returns the names that
/// fell back to the sweep.
std::vector<std::string> emit_per_layer(const Trace& main, const Trace& sweep,
                                        Report& rep);

}  // namespace perfbench
