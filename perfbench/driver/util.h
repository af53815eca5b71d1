// Clocks, process resource readings, order statistics and JSON helpers
// shared by the benchmark driver.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
[[nodiscard]] double wall_now();

/// User plus system CPU seconds of the whole process (all threads).
[[nodiscard]] double cpu_now();

/// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS via
/// /proc/self/clear_refs. False when the kernel refuses; peak_rss_mb()
/// then reports the whole process's peak.
bool reset_peak_rss();

/// Peak resident set size in MiB since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mb();

/// Median of `v` (mean of the two middle values for even sizes); NaN
/// for an empty vector.
[[nodiscard]] double median(std::vector<double> v);

/// Quantile `q` in [0, 1] by linear interpolation between order
/// statistics (the "inclusive" method); NaN for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// `s` as a quoted JSON string literal.
[[nodiscard]] std::string json_string(const std::string& s);

/// `v` as a JSON number with every significant digit (null if not
/// finite).
[[nodiscard]] std::string json_number(double v);

/// `v` as a JSON array of numbers.
[[nodiscard]] std::string json_array(const std::vector<double>& v);

/// Sets (or, with a null value, unsets) an environment variable for the
/// lifetime of the object and restores the previous value afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value);
  ~ScopedEnv();
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> old_;
};

}  // namespace perfbench
