// Measurement helpers shared by the benchmark phases: process resource
// usage, order statistics, and the metric report that becomes the benchmark's JSON result line.
#pragma once

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// getrusage(RUSAGE_SELF) at one instant.
struct Usage {
  double sys_s = 0.0;
  long minor_faults = 0;
  long max_rss_kb = 0;

  static Usage now();
};

/// CPU seconds used so far by every thread of the process. The kernel
/// leaves out the time the VM's vCPUs were stolen, and a thread that
/// waits passively uses none, so a CPU-time delta counts the work done
/// rather than the host's load.
double process_cpu_s();
/// CPU seconds used so far by the calling thread.
double thread_cpu_s();
/// CPU seconds used so far by the thread whose CPU clock is `clock`
/// (pthread_getcpuclockid).
double thread_cpu_s(clockid_t clock);

/// Process CPU milliseconds between successive laps.
class CpuStopwatch {
 public:
  CpuStopwatch() : last_s_(process_cpu_s()) {}
  /// CPU ms since construction or the previous lap.
  double lap_ms() {
    const double now = process_cpu_s();
    const double ms = (now - last_s_) * 1e3;
    last_s_ = now;
    return ms;
  }

 private:
  double last_s_;
};

/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Ordered name -> (value, unit) list. Printed as human-readable lines
/// and as the "metrics" object of the JSON result.
class Report {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }
  void print_lines(const char* prefix) const;
  /// The benchmark's result line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  std::string result_json(bool correct, std::int64_t attempted,
                          std::int64_t failed) const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace perfbench
