// Policy what-if: the soft bandwidth cap (§3.8) as a policy lever.
// Simulates the 2015 campaign under alternative carrier policies and
// reports how the Fig 19 metrics respond — the kind of counterfactual a
// regulator or carrier would run with this library.
//
//   $ ./build/examples/policy_whatif [scale]
#include <cstdio>
#include <cstdlib>

#include "analysis/cap.h"
#include "analysis/volumes.h"
#include "io/table.h"
#include "sim/simulator.h"

using namespace tokyonet;

namespace {

struct PolicyResult {
  std::string name;
  analysis::CapAnalysis cap;
  analysis::DailyVolumeStats volumes;
};

PolicyResult run_policy(std::string name, ScenarioConfig config) {
  const Dataset ds = sim::Simulator(config).run();
  const auto days = analysis::user_days(ds);
  return PolicyResult{std::move(name),
                      analysis::analyze_cap(ds.devices.size(), days,
                                            config.cap.threshold_mb),
                      analysis::daily_volume_stats(days)};
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  std::printf("tokyonet cap-policy what-if (2015 panel, scale %.2f)\n\n",
              scale);

  const ScenarioConfig base = scenario_config(Year::Y2015, scale);
  std::vector<PolicyResult> results;

  // As measured: two of three carriers relaxed in Feb 2015.
  results.push_back(run_policy("2015 as measured", base));

  // Counterfactual A: nobody relaxed (the 2014 regime with 2015 demand).
  ScenarioConfig strict = base;
  strict.cap.relaxed = {false, false, false};
  results.push_back(run_policy("no carrier relaxed", strict));

  // Counterfactual B: everyone relaxed.
  ScenarioConfig relaxed = base;
  relaxed.cap.relaxed = {true, true, true};
  results.push_back(run_policy("all carriers relaxed", relaxed));

  // Counterfactual C: a tighter cap (500 MB / 3 days).
  ScenarioConfig tight = base;
  tight.cap.threshold_mb = 500;
  results.push_back(run_policy("tighter 500 MB cap", tight));

  io::TextTable t({"policy", "capped users", "gap at 0.5", "capped < half",
                   "mean cell MB/day"});
  for (const PolicyResult& r : results) {
    t.add_row({r.name, io::TextTable::pct(r.cap.capped_user_share, 1),
               io::TextTable::num(r.cap.gap_at_half, 2),
               io::TextTable::pct(r.cap.capped_below_half, 0),
               io::TextTable::num(r.volumes.mean_cell)});
  }
  t.print();

  std::printf(
      "\nreading: relaxing the cap shrinks the capped-vs-others gap (the\n"
      "paper's 0.29 -> 0.15 observation between 2014 and 2015), while a\n"
      "tighter threshold sweeps in many more users. Mean cellular volume\n"
      "barely moves — the cap disciplines the tail, not the median.\n");
  return 0;
}
