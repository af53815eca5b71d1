// perfbench: the end-to-end benchmark driver for tokyonet.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--tiny] [--inject frame|reference] [--work DIR]
//
// Run from the repository root. Checks every rendering against the
// goldens in tests/golden, runs workload W (see perfbench/README.md)
// and prints, as the last line of stdout, one JSON object: correct,
// attempted, failed and the metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The full record
// (environment, failure log, every metric) goes to
// .bench_out/<workload>-seed<N>-trace<T>.json, the traced run's spans
// to .bench_out/<workload>-seed<N>.trace.json (Chrome trace-event
// format), and a human-readable summary to stderr. Scratch data lives in
// --work (default .bench_work/<workload>-<pid>) and is removed at exit.
// Exit code 0 only when every check passed; 1 on a failed check; 2 on
// bad usage or a non-Release build.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/parallel.h"
#include "stats/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
               "                 [--tiny] [--inject frame|reference] [--work DIR]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// The measured metrics among `names`, as a JSON object.
std::string metrics_json(
    const Report& rep,
    const std::vector<std::pair<std::string, std::string>>& names) {
  std::string out = "{";
  for (const auto& [name, unit] : names) {
    const auto it = rep.metrics.find(name);
    if (it == rep.metrics.end()) continue;
    if (out.size() > 1) out += ", ";
    out += perfbench::json_string(name) + ": {\"value\": " +
           perfbench::json_number(it->second.value) +
           ", \"unit\": " + perfbench::json_string(it->second.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const std::filesystem::path out_dir = ".bench_out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--tiny") {
      o.tiny = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, o.seed)) return usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0)) {
        return usage("--seconds takes a positive number");
      }
      have_seconds = true;
    } else if (a == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") {
        return usage("--trace takes 0 or 1");
      }
      o.trace = std::string(v) == "1";
      have_trace = true;
    } else if (a == "--inject") {
      o.inject = v;
    } else if (a == "--work") {
      o.work = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to time a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }
  if (!std::filesystem::is_directory(perfbench::kGoldenDir)) {
    return usage("run from the repository root: tests/golden not found");
  }
  if (o.work.empty()) {
    o.work = std::filesystem::path(".bench_work") /
             (o.workload + "-" + std::to_string(getpid()));
  }
  // Only the benchmark chooses where campaigns live and how they load.
  for (const char* name : {"TOKYONET_CACHE_DIR", "TOKYONET_CACHE_SHARDS",
                           "TOKYONET_RESIDENT_SHARDS", "TOKYONET_SHARD_VERIFY"}) {
    unsetenv(name);
  }

  const double started = perfbench::wall_now();
  Report rep;
  perfbench::Trace main_trace(o.trace), sweep_trace(o.trace);
  perfbench::Samples samples;
  std::vector<std::string> from_sweep;
  std::error_code ec;
  std::filesystem::create_directories(o.work, ec);
  try {
    perfbench::check_goldens(rep);
    if (!perfbench::run_workload(o, rep, main_trace, samples)) {
      std::filesystem::remove_all(o.work, ec);
      return usage(("unknown workload or fault for " + o.workload).c_str());
    }
    if (o.trace) {
      perfbench::layer_sweep(o, rep, sweep_trace);
      from_sweep = perfbench::emit_per_layer(main_trace, sweep_trace, rep);
    } else {
      perfbench::emit_end_to_end(samples, rep);
    }
  } catch (const std::exception& e) {
    std::filesystem::remove_all(o.work, ec);
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  std::filesystem::remove_all(o.work, ec);

  rep.note("driver_wall_s", perfbench::wall_now() - started);
  rep.note("workload", o.workload);
  rep.note("seed", static_cast<double>(o.seed));
  rep.note("seconds", o.seconds);
  rep.note("trace", o.trace ? 1.0 : 0.0);
  rep.note("tiny", o.tiny ? 1.0 : 0.0);
  rep.note("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  rep.note("pool_threads", tokyonet::core::thread_count());
  rep.note("build_type", build_type);
  rep.note("simd_isa", tokyonet::stats::simd::active_isa());
  rep.note("rss_window", perfbench::reset_peak_rss() ? "pass" : "process");

  const auto names = o.trace ? perfbench::per_layer_metrics()
                             : perfbench::end_to_end_metrics();
  const bool correct = rep.failed == 0;
  const double failed_ratio =
      rep.attempted > 0 ? static_cast<double>(rep.failed) /
                              static_cast<double>(rep.attempted)
                        : 1.0;

  // Full record.
  std::filesystem::create_directories(out_dir, ec);
  const std::string stem = o.workload + "-seed" + std::to_string(o.seed);
  {
    std::string env = "{";
    for (const auto& [k, v] : rep.env) {
      if (env.size() > 1) env += ", ";
      env += perfbench::json_string(k) + ": " + v;
    }
    env += "}";
    std::string errors = "[";
    for (const std::string& e : rep.errors) {
      if (errors.size() > 1) errors += ", ";
      errors += perfbench::json_string(e);
    }
    errors += "]";
    std::string fallback = "[";
    for (const std::string& n : from_sweep) {
      if (fallback.size() > 1) fallback += ", ";
      fallback += perfbench::json_string(n);
    }
    fallback += "]";
    std::ofstream f(out_dir / (stem + "-trace" + (o.trace ? "1" : "0") + ".json"));
    f << "{\"env\": " << env << ",\n \"attempted\": " << rep.attempted
      << ", \"failed\": " << rep.failed
      << ", \"failed_ratio\": " << perfbench::json_number(failed_ratio)
      << ",\n \"errors\": " << errors
      << ",\n \"measured_by_sweep\": " << fallback
      << ",\n \"samples\": {\"setup_s\": " << perfbench::json_array(samples.setup_s)
      << ", \"pass_s\": " << perfbench::json_array(samples.pass_s)
      << ", \"cpu_s\": " << perfbench::json_array(samples.cpu_s)
      << ", \"rss_mb\": " << perfbench::json_array(samples.rss_mb) << "}"
      << ",\n \"metrics\": " << metrics_json(rep, names) << "}\n";
  }
  if (o.trace) {
    perfbench::write_chrome_trace(out_dir / (stem + ".trace.json"),
                                  {&main_trace, &sweep_trace});
  }

  // Human-readable summary on stderr.
  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d: %s (%llu of %llu failed,"
               " failed_ratio %.6g)\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.trace ? 1 : 0, correct ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(rep.failed),
               static_cast<unsigned long long>(rep.attempted), failed_ratio);
  for (const auto& [k, v] : rep.env) std::fprintf(stderr, "  env %-18s %s\n", k.c_str(), v.c_str());
  for (const std::string& e : rep.errors) std::fprintf(stderr, "  FAIL %s\n", e.c_str());
  for (const auto& [name, unit] : names) {
    const auto it = rep.metrics.find(name);
    if (it == rep.metrics.end()) {
      std::fprintf(stderr, "  %-36s (not measured)\n", name.c_str());
    } else {
      std::fprintf(stderr, "  %-36s %14.6g %s\n", name.c_str(), it->second.value,
                   it->second.unit.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              metrics_json(rep, names).c_str());
  return correct ? 0 : 1;
}
