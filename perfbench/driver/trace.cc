#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

std::uint64_t this_tid() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

void Trace::span(const std::string& name, double start, double dur) {
  if (!enabled_) return;
  const std::uint64_t g = group_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, g, start, dur, this_tid()});
}

void Trace::count(const std::string& name, double v) {
  if (!enabled_) return;
  const std::uint64_t g = group_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  counters_[{name, g}] += v;
}

std::optional<double> Trace::metric(const std::string& name) const {
  std::map<std::uint64_t, double> per_group;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Span& s : spans_) {
      if (s.name == name) per_group[s.group] += s.dur;
    }
    for (const auto& [key, v] : counters_) {
      if (key.first == name) per_group[key.second] += v;
    }
  }
  if (per_group.empty()) return std::nullopt;
  std::vector<double> v;
  v.reserve(per_group.size());
  for (const auto& [g, sum] : per_group) v.push_back(sum);
  return median(std::move(v));
}

void Trace::chrome_events(int pid, std::string& events) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::uint64_t, int> tids;  // small stable thread numbers
  char buf[160];
  for (const Span& s : spans_) {
    const int tid = tids.emplace(s.tid, static_cast<int>(tids.size())).first->second;
    if (!events.empty()) events += ",\n";
    events += "{\"name\":" + json_string(s.name);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"group\":%llu}}",
                  s.start * 1e6, s.dur * 1e6, pid, tid,
                  static_cast<unsigned long long>(s.group));
    events += buf;
  }
  for (const auto& [key, v] : counters_) {
    if (!events.empty()) events += ",\n";
    events += "{\"name\":" + json_string(key.first);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"C\",\"ts\":0,\"pid\":%d,\"args\":{\"group_%llu\":%.17g}}",
                  pid, static_cast<unsigned long long>(key.second), v);
    events += buf;
  }
}

void TracedSource::fold_blocks(const ScanFn& scan, const FoldFn& fold) const {
  const std::thread::id caller = std::this_thread::get_id();
  double caller_scan = 0.0;  // written by the calling thread only
  double fold_total = 0.0;
  const double start = wall_now();
  inner_.fold_blocks(
      [&](const tokyonet::Dataset& block, std::size_t base) {
        const double t0 = wall_now();
        std::shared_ptr<void> p = scan(block, base);
        const double d = wall_now() - t0;
        trace_.span("query.scan_s", t0, d);
        if (std::this_thread::get_id() == caller) caller_scan += d;
        return p;
      },
      [&](std::shared_ptr<void> p, std::size_t base) {
        const double t0 = wall_now();
        fold(std::move(p), base);
        const double d = wall_now() - t0;
        trace_.span("query.fold_s", t0, d);
        trace_.count("query.blocks", 1);
        fold_total += d;
      });
  const double wall = wall_now() - start;
  trace_.span("query.fold_blocks", start, wall);
  trace_.count("query.passes", 1);
  trace_.count("query.wait_s", std::max(0.0, wall - caller_scan - fold_total));
}

void write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<const Trace*>& traces) {
  std::string events;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    traces[i]->chrome_events(static_cast<int>(i) + 1, events);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" << events << "\n]}\n";
}

}  // namespace perfbench
