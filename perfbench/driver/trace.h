// In-memory span and counter recorder for the traced benchmark run, plus
// a DataSource decorator that times the scan and fold callbacks the
// query layer hands it.
//
// Spans are recorded from the benchmark's own code around calls into
// each tokyonet layer; nothing inside src/ is instrumented. A span or
// counter whose name is a per-layer metric (e.g. "io.snapshot_load_s")
// feeds that metric: the metric's value is the median, over the groups
// (set-up iterations or passes) in which the name occurs, of the
// per-group sum. Spans stay in memory and are written once, at the end,
// as Chrome trace-event JSON (chrome://tracing, Perfetto).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/query/source.h"
#include "util.h"

namespace perfbench {

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Starts a new group: later spans and counters aggregate into it.
  void next_group() noexcept { group_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a span [start, start + dur) in the current group. Safe to
  /// call from any thread; a no-op when disabled.
  void span(const std::string& name, double start, double dur);

  /// Adds `v` to counter `name` in the current group.
  void count(const std::string& name, double v);

  /// Median over groups of the per-group sum of spans and counters
  /// named `name`; nullopt when the name was never recorded.
  [[nodiscard]] std::optional<double> metric(const std::string& name) const;

  /// Appends this trace's events to `events` (Chrome trace-event
  /// objects) under process id `pid`.
  void chrome_events(int pid, std::string& events) const;

  /// Times its own scope as a span.
  class Scope {
   public:
    Scope(Trace& t, std::string name)
        : t_(t), name_(std::move(name)), start_(wall_now()) {}
    ~Scope() { t_.span(name_, start_, wall_now() - start_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& t_;
    std::string name_;
    double start_;
  };

 private:
  struct Span {
    std::string name;
    std::uint64_t group;
    double start, dur;
    std::uint64_t tid;
  };

  const bool enabled_;
  std::atomic<std::uint64_t> group_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::pair<std::string, std::uint64_t>, double> counters_;
};

/// Forwards every DataSource call to `inner`, timing the callbacks of
/// each fold_blocks() pass: "query.scan_s" (every scan, on any thread),
/// "query.fold_s", and "query.wait_s" — the pass's wall time not covered
/// by scan or fold on the calling thread (the prefetch stall). Counts
/// "query.passes" and "query.blocks" exactly.
class TracedSource final : public tokyonet::analysis::query::DataSource {
 public:
  TracedSource(const DataSource& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] tokyonet::Year year() const noexcept override {
    return inner_.year();
  }
  [[nodiscard]] const tokyonet::CampaignCalendar& calendar()
      const noexcept override {
    return inner_.calendar();
  }
  [[nodiscard]] std::size_t n_devices() const noexcept override {
    return inner_.n_devices();
  }
  [[nodiscard]] std::size_t n_samples() const noexcept override {
    return inner_.n_samples();
  }
  [[nodiscard]] const std::vector<tokyonet::ApInfo>& aps()
      const noexcept override {
    return inner_.aps();
  }
  [[nodiscard]] const tokyonet::Dataset* dataset_or_null()
      const noexcept override {
    return inner_.dataset_or_null();
  }
  void fold_blocks(const ScanFn& scan, const FoldFn& fold) const override;

 private:
  const DataSource& inner_;
  Trace& trace_;
};

/// Writes the events of `traces` (pid = index + 1) as one Chrome
/// trace-event JSON file.
void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<const Trace*>& traces);

}  // namespace perfbench
