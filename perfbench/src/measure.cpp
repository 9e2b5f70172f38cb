#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace perfbench {

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = ru.ru_minflt;
  u.max_rss_kb = ru.ru_maxrss;
  return u;
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double thread_cpu_s(clockid_t clock) { return clock_s(clock); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void Report::print_lines(const char* prefix) const {
  for (const auto& e : entries_) {
    std::printf("%s %-28s %14.6g %s\n", prefix, e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::fflush(stdout);
}

std::string Report::result_json(bool correct, std::int64_t attempted,
                                std::int64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& e : entries_) {
    char num[64];
    // JSON has no NaN/Inf: a non-finite value is written as 0 (and
    // main() fails the run when an end-to-end metric is not finite).
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    os << (first ? "" : ", ") << "\"" << e.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
